#include "src/analysis/classification.h"

#include <algorithm>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/text/features.h"
#include "src/text/vocabulary.h"
#include "src/util/error.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace fa::analysis {

std::vector<const trace::Ticket*> extract_crash_tickets(
    const trace::TraceDatabase& db) {
  // Blocks of a fixed ticket count are scanned in parallel; their bounds
  // depend only on the ticket count, and concatenating the per-block
  // matches in block order keeps ticket order at any thread count.
  constexpr std::size_t kBlockTickets = 8192;
  const auto symptoms = text::crash_symptoms();
  const std::vector<trace::Ticket>& tickets = db.tickets();
  const std::size_t blocks =
      (tickets.size() + kBlockTickets - 1) / kBlockTickets;
  std::vector<std::vector<const trace::Ticket*>> matches(blocks);
  parallel_for(blocks, [&](std::size_t b) {
    std::string description;  // reused across tickets; lowering is the hot loop
    const std::size_t end = std::min(tickets.size(), (b + 1) * kBlockTickets);
    for (std::size_t i = b * kBlockTickets; i < end; ++i) {
      to_lower_into(tickets[i].description, description);
      for (std::string_view symptom : symptoms) {
        if (description.find(symptom) != std::string::npos) {
          matches[b].push_back(&tickets[i]);
          break;
        }
      }
    }
  });
  std::size_t total = 0;
  for (const auto& block : matches) total += block.size();
  std::vector<const trace::Ticket*> out;
  out.reserve(total);
  for (const auto& block : matches) {
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

ClassificationResult classify_tickets(
    std::span<const trace::Ticket* const> tickets,
    const ClassifierOptions& options, Rng& rng) {
  require(!tickets.empty(), "classify_tickets: no tickets");
  require(options.clusters >= 1, "classify_tickets: clusters must be >= 1");
  require(options.labeled_fraction > 0.0 && options.labeled_fraction <= 1.0,
          "classify_tickets: labeled_fraction must be in (0, 1]");

  // TF-IDF features over description + resolution, as in the paper.
  std::vector<std::string> corpus;
  corpus.reserve(tickets.size());
  for (const trace::Ticket* t : tickets) {
    corpus.push_back(t->description + " " + t->resolution);
  }
  text::VectorizerOptions vec_options;
  vec_options.min_document_frequency = options.min_document_frequency;
  obs::Span vectorize_span("analysis.vectorize");
  const auto vectorizer = text::Vectorizer::fit(corpus, vec_options);
  // CSR features and the bound-pruned sparse k-means; no dense
  // intermediate is ever built.
  const auto features = vectorizer.transform_all_sparse(corpus);
  vectorize_span.close();
  obs::counter("fa.analysis.vectorized_documents").add(corpus.size());
  obs::counter("fa.analysis.vocabulary_terms")
      .add(vectorizer.vocabulary().size());

  stats::KMeansOptions km;
  km.k = options.clusters;
  km.restarts = options.kmeans_restarts;
  ClassificationResult result;
  {
    obs::Span kmeans_span("analysis.kmeans");
    result.clustering = stats::kmeans(features, km, rng);
  }

  // Name clusters from the manually-labeled subset. Raw majority voting
  // would assign nearly every mixed cluster to "other" (it holds ~53% of
  // the mass), starving the small hardware/network/power classes, so
  // clusters are named by *lift*: the class whose share within the cluster
  // most exceeds its global share. A cluster must still hold a meaningful
  // over-representation (lift > 1) to claim a non-"other" name.
  std::vector<std::array<int, trace::kFailureClassCount>> votes(
      static_cast<std::size_t>(options.clusters));
  for (auto& v : votes) v.fill(0);
  std::array<double, trace::kFailureClassCount> global{};
  std::size_t labeled = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (!rng.bernoulli(options.labeled_fraction)) continue;
    ++labeled;
    global[static_cast<std::size_t>(tickets[i]->true_class)] += 1.0;
    const auto cluster =
        static_cast<std::size_t>(result.clustering.assignment[i]);
    ++votes[cluster][static_cast<std::size_t>(tickets[i]->true_class)];
  }
  require(labeled > 0, "classify_tickets: labeled subset came up empty");
  for (double& g : global) g = std::max(g / static_cast<double>(labeled), 1e-9);

  std::vector<trace::FailureClass> cluster_label(
      static_cast<std::size_t>(options.clusters),
      trace::FailureClass::kOther);
  for (std::size_t c = 0; c < votes.size(); ++c) {
    int cluster_total = 0;
    for (int v : votes[c]) cluster_total += v;
    if (cluster_total == 0) continue;
    double best_lift = 1.5;  // weak over-representation: stay "other"
    for (std::size_t k = 0; k < trace::kFailureClassCount; ++k) {
      if (static_cast<trace::FailureClass>(k) == trace::FailureClass::kOther) {
        continue;
      }
      const double share =
          static_cast<double>(votes[c][k]) / cluster_total;
      const double lift = share / global[k];
      // Require both over-representation and a non-trivial share.
      if (lift > best_lift && share >= 0.40) {
        best_lift = lift;
        cluster_label[c] = static_cast<trace::FailureClass>(k);
      }
    }
  }

  result.predicted.reserve(tickets.size());
  int correct = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto cluster =
        static_cast<std::size_t>(result.clustering.assignment[i]);
    const trace::FailureClass predicted = cluster_label[cluster];
    result.predicted.push_back(predicted);
    const auto truth = static_cast<std::size_t>(tickets[i]->true_class);
    ++result.confusion[truth][static_cast<std::size_t>(predicted)];
    correct += predicted == tickets[i]->true_class;
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(tickets.size());
  return result;
}

std::unordered_map<trace::TicketId, trace::FailureClass> prediction_map(
    std::span<const trace::Ticket* const> tickets,
    const ClassificationResult& result) {
  require(tickets.size() == result.predicted.size(),
          "prediction_map: tickets/result size mismatch");
  std::unordered_map<trace::TicketId, trace::FailureClass> map;
  map.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    map.emplace(tickets[i]->id, result.predicted[i]);
  }
  return map;
}

}  // namespace fa::analysis
