// Ticket classification (paper Section III-A).
//
// Step 1: identify crash tickets among all problem tickets (the paper mines
// tickets whose machines were "unresponsive or unreachable"; we match the
// same symptom lexicon against the description text).
// Step 2: k-means over TF-IDF vectors of description+resolution text groups
// crash tickets into clusters; clusters are named by majority vote of a
// manually-labeled subset, and accuracy is evaluated against the full ground
// truth (the paper reports 87%).
#pragma once

#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/stats/kmeans.h"
#include "src/trace/database.h"
#include "src/util/rng.h"

namespace fa::analysis {

// Crash-ticket identification by symptom lexicon; returns tickets whose
// description reports an unresponsive/unreachable machine.
std::vector<const trace::Ticket*> extract_crash_tickets(
    const trace::TraceDatabase& db);

struct ClassifierOptions {
  // Clusters are over-provisioned relative to the six classes and mapped to
  // classes by majority vote: with "other" holding ~53% of the mass, k = 6
  // would merge the small hardware/network/power classes (network is only
  // ~3% of crash tickets and needs a generous cluster budget).
  int clusters = 32;
  // Fraction of tickets whose ground-truth label the "manual" pass provides;
  // used only to name clusters, mimicking the paper's manual verification.
  double labeled_fraction = 0.3;
  int kmeans_restarts = 6;
  int min_document_frequency = 2;
};

struct ClassificationResult {
  // Predicted class per input ticket (parallel to the input span).
  std::vector<trace::FailureClass> predicted;
  // Fraction of tickets whose prediction matches the ground truth.
  double accuracy = 0.0;
  // Confusion counts: confusion[truth][predicted].
  std::array<std::array<int, trace::kFailureClassCount>,
             trace::kFailureClassCount>
      confusion{};
  stats::KMeansResult clustering;
};

ClassificationResult classify_tickets(
    std::span<const trace::Ticket* const> tickets,
    const ClassifierOptions& options, Rng& rng);

// Convenience map from ticket id to predicted class.
std::unordered_map<trace::TicketId, trace::FailureClass> prediction_map(
    std::span<const trace::Ticket* const> tickets,
    const ClassificationResult& result);

}  // namespace fa::analysis
