// online/feedback: the concurrent labeled-feedback buffer — sliding-window
// retention, drain semantics, buffer -> Workload conversion, and thread
// safety.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "online/feedback.h"

namespace uae::online {
namespace {

/// An entry whose true_card encodes its arrival index (queries irrelevant).
FeedbackEntry Entry(int i, uint64_t generation = 1) {
  FeedbackEntry e;
  e.query = workload::Query(2);
  e.query.AddPredicate({0, workload::Op::kEq, static_cast<int32_t>(i % 7), {}}, 8);
  e.true_card = static_cast<double>(i);
  e.estimated_card = static_cast<double>(i) * 2.0;
  e.generation = generation;
  return e;
}

std::vector<double> Cards(const std::vector<FeedbackEntry>& entries) {
  std::vector<double> out;
  for (const auto& e : entries) out.push_back(e.true_card);
  return out;
}

TEST(FeedbackCollectorTest, SlidingWindowKeepsNewestInArrivalOrder) {
  FeedbackCollector collector({.capacity = 4});
  for (int i = 0; i < 7; ++i) collector.Add(Entry(i));
  EXPECT_EQ(collector.Size(), 4u);
  EXPECT_EQ(collector.TotalObserved(), 7u);
  EXPECT_EQ(Cards(collector.Snapshot()), (std::vector<double>{3, 4, 5, 6}));
}

TEST(FeedbackCollectorTest, PartialBufferIsArrivalOrdered) {
  FeedbackCollector collector({.capacity = 8});
  for (int i = 0; i < 3; ++i) collector.Add(Entry(i));
  EXPECT_EQ(Cards(collector.Snapshot()), (std::vector<double>{0, 1, 2}));
}

TEST(FeedbackCollectorTest, DrainEmptiesAndReturnsEverything) {
  FeedbackCollector collector({.capacity = 16});
  for (int i = 0; i < 5; ++i) collector.Add(Entry(i));
  std::vector<FeedbackEntry> drained = collector.Drain();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_EQ(collector.Size(), 0u);
  EXPECT_EQ(collector.TotalObserved(), 5u);  // Observation count survives.
  // The ring restarts cleanly after a drain.
  for (int i = 10; i < 13; ++i) collector.Add(Entry(i));
  EXPECT_EQ(Cards(collector.Snapshot()), (std::vector<double>{10, 11, 12}));
}

TEST(FeedbackCollectorTest, ToWorkloadDerivesSelectivities) {
  FeedbackCollector collector({.capacity = 8});
  collector.Add(Entry(3));
  collector.Add(Entry(10));
  workload::Workload w = collector.SnapshotWorkload(/*num_rows=*/100);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0].card, 3.0);
  EXPECT_DOUBLE_EQ(w[0].selectivity, 0.03);
  EXPECT_DOUBLE_EQ(w[1].card, 10.0);
  EXPECT_DOUBLE_EQ(w[1].selectivity, 0.10);
  EXPECT_EQ(w[0].query.Fingerprint(), Entry(3).query.Fingerprint());
}

TEST(FeedbackCollectorTest, ConcurrentAddsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  FeedbackCollector collector({.capacity = kThreads * kPerThread});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.Add(Entry(t * kPerThread + i, static_cast<uint64_t>(t)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(collector.Size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(collector.TotalObserved(), static_cast<uint64_t>(kThreads * kPerThread));
  // Every entry arrived exactly once, whatever the interleaving.
  std::vector<double> cards = Cards(collector.Snapshot());
  std::set<double> unique(cards.begin(), cards.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(FeedbackCollectorTest, ConcurrentAddsUnderEvictionStayBounded) {
  FeedbackCollector collector({.capacity = 64});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) collector.Add(Entry(i, static_cast<uint64_t>(t)));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(collector.Size(), 64u);
  EXPECT_EQ(collector.TotalObserved(), 4000u);
}

}  // namespace
}  // namespace uae::online
