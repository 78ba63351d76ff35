#include "src/analysis/classification.h"

#include <gtest/gtest.h>

#include "src/util/error.h"
#include "tests/test_support.h"

namespace fa::analysis {
namespace {

const trace::TraceDatabase& db() { return fa::testing::small_simulated_db(); }

TEST(Classification, ExtractionRecoversExactlyTheCrashTickets) {
  // The symptom lexicon must identify precisely the tickets the simulator
  // flagged as crashes — no false positives from background tickets.
  const auto extracted = extract_crash_tickets(db());
  std::size_t flagged = 0;
  for (const trace::Ticket& t : db().tickets()) flagged += t.is_crash;
  EXPECT_EQ(extracted.size(), flagged);
  for (const trace::Ticket* t : extracted) EXPECT_TRUE(t->is_crash);
}

TEST(Classification, AccuracyNearPaperLevel) {
  const auto tickets = extract_crash_tickets(db());
  Rng rng(3);
  const auto result = classify_tickets(tickets, {}, rng);
  // Paper: 87%; we accept anything clearly better than chance and in the
  // same band.
  EXPECT_GT(result.accuracy, 0.75);
  EXPECT_LE(result.accuracy, 1.0);
}

TEST(Classification, PredictionsCoverEveryTicket) {
  const auto tickets = extract_crash_tickets(db());
  Rng rng(4);
  const auto result = classify_tickets(tickets, {}, rng);
  ASSERT_EQ(result.predicted.size(), tickets.size());
  const auto map = prediction_map(tickets, result);
  EXPECT_EQ(map.size(), tickets.size());
  for (const trace::Ticket* t : tickets) {
    EXPECT_TRUE(map.contains(t->id));
  }
}

TEST(Classification, ConfusionMatrixRowSumsMatchTruthCounts) {
  const auto tickets = extract_crash_tickets(db());
  Rng rng(5);
  const auto result = classify_tickets(tickets, {}, rng);
  std::array<int, trace::kFailureClassCount> truth_counts{};
  for (const trace::Ticket* t : tickets) {
    ++truth_counts[static_cast<std::size_t>(t->true_class)];
  }
  for (std::size_t truth = 0; truth < trace::kFailureClassCount; ++truth) {
    int row = 0;
    for (std::size_t pred = 0; pred < trace::kFailureClassCount; ++pred) {
      row += result.confusion[truth][pred];
    }
    EXPECT_EQ(row, truth_counts[truth]);
  }
}

TEST(Classification, MoreClustersImproveSmallClassRecovery) {
  const auto tickets = extract_crash_tickets(db());
  ClassifierOptions coarse, fine;
  coarse.clusters = 6;
  fine.clusters = 12;
  Rng r1(6), r2(6);
  const double acc6 = classify_tickets(tickets, coarse, r1).accuracy;
  const double acc12 = classify_tickets(tickets, fine, r2).accuracy;
  EXPECT_GE(acc12, acc6 - 0.02);  // over-clustering must not hurt much
}

TEST(Classification, RejectsBadOptions) {
  const auto tickets = extract_crash_tickets(db());
  Rng rng(7);
  ClassifierOptions bad;
  bad.clusters = 0;
  EXPECT_THROW(classify_tickets(tickets, bad, rng), Error);
  bad = {};
  bad.labeled_fraction = 0.0;
  EXPECT_THROW(classify_tickets(tickets, bad, rng), Error);
  EXPECT_THROW(classify_tickets({}, {}, rng), Error);
}

TEST(Classification, DeterministicForSeed) {
  const auto tickets = extract_crash_tickets(db());
  Rng r1(8), r2(8);
  const auto a = classify_tickets(tickets, {}, r1);
  const auto b = classify_tickets(tickets, {}, r2);
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

}  // namespace
}  // namespace fa::analysis
