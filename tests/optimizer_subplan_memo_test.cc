// optimizer/subplan_memo: canonical-hash invariance (clause reordering,
// restricted vs unrestricted spellings), the miss -> observe -> hit
// lifecycle with log-space EMA smoothing, bitwise persistence round trips,
// and the executed-plan feedback path (RecordPlanFeedback + refresher).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "data/imdb_star.h"
#include "optimizer/card_provider.h"
#include "optimizer/dp_optimizer.h"
#include "optimizer/executor.h"
#include "optimizer/subplan_memo.h"
#include "workload/join_workload.h"
#include "workload/metrics.h"

namespace uae::optimizer {
namespace {

data::JoinUniverse SmallUniverse() {
  data::ImdbStarConfig c;
  c.num_titles = 600;
  c.seed = 9;
  return data::BuildImdbStar(c);
}

workload::Constraint Range(int32_t lo, int32_t hi) {
  workload::Constraint c;
  c.kind = workload::Constraint::Kind::kRange;
  c.lo = lo;
  c.hi = hi;
  return c;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SubplanFssTest, InvariantToClauseOrder) {
  data::JoinUniverse uni = SmallUniverse();
  const int nc = uni.universe.num_cols();
  const int col_a = uni.tables[0].content_cols.front();
  const int col_b = uni.tables[1].content_cols.front();
  const int col_c = uni.tables[1].content_cols.back();
  ASSERT_NE(col_a, col_b);
  ASSERT_NE(col_b, col_c);
  // Two range clauses added in opposite orders: Query stores one intersected
  // constraint per column, so both spellings are the same sub-plan and must
  // hash identically.
  workload::JoinQuery a;
  a.table_mask = 0b111;
  a.pred = workload::Query(nc);
  a.pred.mutable_constraint(col_a) = Range(1, 8);
  a.pred.mutable_constraint(col_b) = Range(2, 6);

  workload::JoinQuery b;
  b.table_mask = 0b111;
  b.pred = workload::Query(nc);
  b.pred.mutable_constraint(col_b) = Range(2, 6);
  b.pred.mutable_constraint(col_a) = Range(1, 8);

  EXPECT_EQ(SubplanFss(uni, a), SubplanFss(uni, b));
  // ... and constraining one more column changes the hash (non-vacuity).
  workload::JoinQuery c = a;
  c.pred.mutable_constraint(col_c) = Range(0, 3);
  EXPECT_NE(SubplanFss(uni, a), SubplanFss(uni, c));

  // Intersecting clause pairs commute the same way.
  workload::Constraint c1 = Range(1, 10);
  workload::Constraint c2 = Range(4, 20);
  workload::JoinQuery x = a, y = a;
  x.pred.mutable_constraint(col_c) =
      workload::IntersectConstraints(c1, c2, /*domain=*/64);
  y.pred.mutable_constraint(col_c) =
      workload::IntersectConstraints(c2, c1, /*domain=*/64);
  EXPECT_EQ(SubplanFss(uni, x), SubplanFss(uni, y));
}

TEST(SubplanFssTest, IgnoresConstraintsOutsideTheTableSet) {
  data::JoinUniverse uni = SmallUniverse();
  workload::JoinQuery full;
  full.table_mask = 0b111;
  full.pred = workload::Query(uni.universe.num_cols());
  // Constrain one column of every table.
  for (int t = 0; t < uni.NumTables(); ++t) {
    int col = uni.tables[static_cast<size_t>(t)].content_cols.front();
    full.pred.mutable_constraint(col) = Range(0, 3);
  }
  // Restricting to {fact, table 1} must agree with hashing the unrestricted
  // predicate under the restricted mask: out-of-set constraints are ignored.
  workload::JoinQuery restricted = RestrictToSubset(uni, full, 0b011);
  workload::JoinQuery unrestricted = full;
  unrestricted.table_mask = 0b011;
  EXPECT_EQ(SubplanFss(uni, restricted), SubplanFss(uni, unrestricted));
  // ... and differ from the full sub-plan.
  EXPECT_NE(SubplanFss(uni, restricted), SubplanFss(uni, full));
}

TEST(SubplanFssTest, DistinctAcrossSubplansAndPredicates) {
  data::JoinUniverse uni = SmallUniverse();
  workload::JoinGeneratorConfig gc;
  gc.focused = true;
  workload::JoinQueryGenerator gen(uni, gc, 77);
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 16; ++i) {
    workload::JoinQuery q = gen.Generate();
    for (uint32_t s = 1; s <= q.table_mask; ++s) {
      if ((s & q.table_mask) != s || !(s & 1u)) continue;
      seen.insert(SubplanFss(uni, RestrictToSubset(uni, q, s)));
    }
  }
  // All (query, submask) pairs hash distinctly at this scale.
  EXPECT_GE(seen.size(), 16u * 3u);
}

TEST(SubplanMemoTest, MissObserveHitLifecycle) {
  SubplanMemo memo;
  EXPECT_FALSE(memo.Lookup(42).has_value());
  memo.Observe(42, 1000.0);
  ASSERT_TRUE(memo.Lookup(42).has_value());
  EXPECT_NEAR(*memo.Lookup(42), 1000.0, 1e-9);
  EXPECT_EQ(memo.Size(), 1u);

  // Log-space EMA with smoothing 0.5: observing 10x the old value moves the
  // memo to the geometric midpoint.
  memo.Observe(42, 10000.0);
  EXPECT_NEAR(*memo.Lookup(42), std::sqrt(1000.0 * 10000.0), 1e-6);

  SubplanMemoStats stats = memo.Stats();
  EXPECT_EQ(stats.observations, 2u);
  EXPECT_GE(stats.hits, 3u);
}

TEST(SubplanMemoTest, PersistenceRoundTripIsBitwise) {
  SubplanMemo memo;
  // Values chosen to have non-trivial mantissas.
  memo.Observe(3, 1234.5678);
  memo.Observe(1, 9.999999999);
  memo.Observe(2, 7.0);
  memo.Observe(2, 77777.77);  // EMA'd entry.
  const std::string path = TempPath("memo_roundtrip.bin");
  ASSERT_TRUE(memo.Save(path).ok());

  SubplanMemo loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  std::vector<SubplanMemoEntry> a = memo.Entries();
  std::vector<SubplanMemoEntry> b = loaded.Entries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fss, b[i].fss);
    EXPECT_EQ(a[i].nobs, b[i].nobs);
    // Bitwise, not approximate: persistence stores raw IEEE-754 bits.
    EXPECT_EQ(std::memcmp(&a[i].log_card, &b[i].log_card, sizeof(double)), 0);
  }

  // Save -> load -> save reproduces the file byte for byte (entries are
  // written sorted by fss).
  const std::string path2 = TempPath("memo_roundtrip2.bin");
  ASSERT_TRUE(loaded.Save(path2).ok());
  EXPECT_EQ(FileBytes(path), FileBytes(path2));
}

TEST(SubplanMemoTest, LoadRejectsGarbage) {
  const std::string path = TempPath("memo_garbage.bin");
  std::ofstream(path, std::ios::binary) << "not a memo file";
  SubplanMemo memo;
  EXPECT_FALSE(memo.Load(path).ok());
  EXPECT_FALSE(memo.Load(TempPath("memo_missing.bin")).ok());
}

// A corrupt header whose entry count claims 2^60 entries, with none behind
// it: Load used to reserve that many map slots first and threw bad_alloc.
TEST(SubplanMemoTest, LoadRejectsAnOversizedEntryCount) {
  const std::string path = TempPath("memo_oversized.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const uint32_t version = 1;
    const uint64_t count = uint64_t{1} << 60;
    out.write("UAEM", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  SubplanMemo memo;
  memo.Observe(7, 100.0);
  util::Status status = util::Status::Ok();
  EXPECT_NO_THROW(status = memo.Load(path));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(memo.Size(), 1u);  // A failed load keeps the old entries.
}

// A file cut right after its version: Load used to read the missing count as
// 0 and replace the memo with an empty one.
TEST(SubplanMemoTest, LoadRejectsAHeaderCutBeforeItsCount) {
  const std::string path = TempPath("memo_no_count.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const uint32_t version = 1;
    out.write("UAEM", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  SubplanMemo memo;
  memo.Observe(7, 100.0);
  EXPECT_FALSE(memo.Load(path).ok());
  EXPECT_EQ(memo.Size(), 1u);
}

TEST(SubplanFeedbackTest, ExecutedPlanRefreshesMemoWithTrueCards) {
  data::JoinUniverse uni = SmallUniverse();
  workload::JoinGeneratorConfig gc;
  gc.focused = true;
  workload::JoinQueryGenerator gen(uni, gc, 91);
  workload::JoinQuery q = gen.Generate();

  TrueCardProvider truth(uni);
  PlanResult plan = OptimizeJoinOrder(uni, q, &truth);
  ExecutionResult r = ExecutePlan(uni, q, plan.join_order);
  ASSERT_EQ(r.step_rows.size(), plan.join_order.size() - 1);

  online::FeedbackCollector collector;
  size_t added = RecordPlanFeedback(uni, q, plan.join_order, r.step_rows,
                                    /*generation=*/1, &collector);
  EXPECT_EQ(added, r.step_rows.size());

  SubplanMemo memo;
  SubplanMemoRefresher refresher(uni, &memo, &collector);
  EXPECT_EQ(refresher.RefreshOnce(), added);
  EXPECT_EQ(memo.Size(), added);

  // Every >= 2-table prefix of the executed plan is memoized with its TRUE
  // cardinality — which for prefixes equals the executor's intermediate size.
  uint32_t prefix = 1u << plan.join_order[0];
  for (size_t step = 1; step < plan.join_order.size(); ++step) {
    prefix |= 1u << plan.join_order[step];
    workload::JoinQuery sub = RestrictToSubset(uni, q, prefix);
    auto card = memo.Lookup(SubplanFss(uni, sub));
    ASSERT_TRUE(card.has_value()) << "prefix step " << step;
    double expected = std::max(r.step_rows[step - 1], 1.0);
    EXPECT_NEAR(*card, expected, expected * 1e-12 + 1e-9);
    EXPECT_NEAR(*card, std::max(workload::JoinTrueCard(uni, sub), 1.0),
                expected * 1e-9 + 1e-6);
  }
}

TEST(SubplanFeedbackTest, RefresherForwardsSingleTableEntries) {
  data::JoinUniverse uni = SmallUniverse();
  SubplanMemo memo;
  online::FeedbackCollector collector;
  online::FeedbackCollector adaptation;
  SubplanMemoRefresher refresher(uni, &memo, &collector, nullptr, &adaptation);

  online::FeedbackEntry single;
  single.query = workload::Query(uni.universe.num_cols());
  single.true_card = 10.0;
  collector.Add(single);
  online::FeedbackEntry join = single;
  join.join_mask = 0b11;
  join.true_card = 25.0;
  collector.Add(join);

  EXPECT_EQ(refresher.RefreshOnce(), 1u);
  EXPECT_EQ(memo.Size(), 1u);
  EXPECT_EQ(adaptation.Size(), 1u) << "single-table feedback passes through";
  EXPECT_EQ(collector.Size(), 0u);
}

TEST(SubplanFeedbackTest, RefresherFeedsJoinQErrorsToTheDriftMonitor) {
  data::JoinUniverse uni = SmallUniverse();
  SubplanMemo memo;
  online::FeedbackCollector collector;
  online::DriftMonitor drift;
  SubplanMemoRefresher refresher(uni, &memo, &collector, &drift);

  online::FeedbackEntry estimated;
  estimated.query = workload::Query(uni.universe.num_cols());
  estimated.join_mask = 0b11;
  estimated.true_card = 10.0;
  estimated.estimated_card = 37.5;
  estimated.generation = 4;
  collector.Add(estimated);
  online::FeedbackEntry unestimated = estimated;  // estimated_card 0: none.
  unestimated.estimated_card = 0.0;
  unestimated.generation = 5;
  collector.Add(unestimated);

  EXPECT_EQ(refresher.RefreshOnce(), 2u);
  EXPECT_EQ(drift.TotalObserved(), 1u);
  const util::ErrorSummary recorded = drift.SummaryForGeneration(4);
  EXPECT_EQ(recorded.count, 1u);
  EXPECT_EQ(recorded.max, workload::QError(37.5, 10.0));
  EXPECT_EQ(drift.SummaryForGeneration(5).count, 0u);
}

TEST(SubplanFeedbackTest, BackgroundRefresherFoldsWhileRunning) {
  data::JoinUniverse uni = SmallUniverse();
  SubplanMemo memo;
  online::FeedbackCollector collector;
  SubplanMemoRefresher refresher(uni, &memo, &collector);
  refresher.Start();
  workload::JoinQuery q;
  q.table_mask = 0b11;
  q.pred = workload::Query(uni.universe.num_cols());
  online::FeedbackEntry entry;
  entry.query = q.pred;
  entry.join_mask = q.table_mask;
  entry.true_card = 77.0;
  collector.Add(entry);
  // Waits for the poll itself, before Stop(): Stop()'s final drain would
  // fold the entry even if the loop never ticked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (memo.Size() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(memo.Size(), 1u) << "the started refresher never folded";
  EXPECT_NEAR(*memo.Lookup(SubplanFss(uni, q)), 77.0, 1e-9);
  refresher.Stop();
}

TEST(SubplanFeedbackTest, BackgroundRefresherDrainsOnStop) {
  data::JoinUniverse uni = SmallUniverse();
  SubplanMemo memo;
  online::FeedbackCollector collector;
  SubplanMemoRefresher refresher(uni, &memo, &collector);
  refresher.Start();
  workload::JoinQuery q;
  q.table_mask = 0b11;
  q.pred = workload::Query(uni.universe.num_cols());
  online::FeedbackEntry entry;
  entry.query = q.pred;
  entry.join_mask = q.table_mask;
  entry.true_card = 123.0;
  collector.Add(entry);
  refresher.Stop();  // Final RefreshOnce folds anything the poll missed.
  ASSERT_EQ(memo.Size(), 1u);
  EXPECT_NEAR(*memo.Lookup(SubplanFss(uni, q)), 123.0, 1e-9);
}

}  // namespace
}  // namespace uae::optimizer
