// workload/: the exact executor against a naive row-by-row reference, plus
// weighted counts and bitmaps.
#include <gtest/gtest.h>

#include <vector>

#include "data/synthetic.h"
#include "util/threadpool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace uae::workload {
namespace {

int64_t NaiveCount(const data::Table& t, const Query& q) {
  int64_t n = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) n += q.MatchesRow(t, r) ? 1 : 0;
  return n;
}

TEST(ExecutorTest, MatchesNaiveOnRandomQueries) {
  data::Table t = data::SyntheticDmv(3000, 1);
  GeneratorConfig gc;
  QueryGenerator gen(t, gc, 5);
  for (int i = 0; i < 50; ++i) {
    Query q = gen.Generate();
    EXPECT_EQ(ExecuteCount(t, q), NaiveCount(t, q)) << "query " << i;
  }
}

TEST(ExecutorTest, UnconstrainedCountsAllRows) {
  data::Table t = data::TinyCorrelated(123, 2);
  Query q(t.num_cols());
  EXPECT_EQ(ExecuteCount(t, q), 123);
}

TEST(ExecutorTest, InAndNeqConstraints) {
  data::Table t = data::TinyCorrelated(2000, 3);
  Query q(t.num_cols());
  q.AddPredicate({0, Op::kIn, 0, {0, 2, 5}}, t.column(0).domain());
  q.AddPredicate({1, Op::kNeq, 1, {}}, t.column(1).domain());
  EXPECT_EQ(ExecuteCount(t, q), NaiveCount(t, q));
}

// The chunk-parallel scan must be *exactly* equal to the single-threaded
// reference — integer counts commute, so any chunking/thread count yields the
// identical result. This is the labeling hot path of the feedback loop.
TEST(ExecutorTest, ParallelScanEqualsSequentialReference) {
  data::Table t = data::SyntheticDmv(20000, 7);  // Big enough to chunk.
  GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 4;
  QueryGenerator gen(t, gc, 13);
  for (int i = 0; i < 30; ++i) {
    Query q = gen.Generate();
    EXPECT_EQ(ExecuteCount(t, q), ExecuteCountSequential(t, q)) << "query " << i;
  }
  // Unconstrained + IN/!= kinds go through the same kernel.
  Query all(t.num_cols());
  EXPECT_EQ(ExecuteCountSequential(t, all), static_cast<int64_t>(t.num_rows()));
  Query mixed(t.num_cols());
  mixed.AddPredicate({0, Op::kIn, 0, {1, 3, 9}}, t.column(0).domain());
  mixed.AddPredicate({2, Op::kNeq, 2, {}}, t.column(2).domain());
  EXPECT_EQ(ExecuteCount(t, mixed), ExecuteCountSequential(t, mixed));
}

TEST(ExecutorTest, BatchedCountsMatchPerQueryExecution) {
  data::Table t = data::SyntheticDmv(4000, 9);
  GeneratorConfig gc;
  gc.min_filters = 1;
  QueryGenerator gen(t, gc, 17);
  std::vector<Query> queries;
  for (int i = 0; i < 40; ++i) queries.push_back(gen.Generate());
  std::vector<int64_t> batched = ExecuteCounts(t, queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], ExecuteCount(t, queries[i])) << "query " << i;
  }
  EXPECT_TRUE(ExecuteCounts(t, {}).empty());
}

TEST(ExecutorTest, WeightedCount) {
  // Two rows with fanout codes {0 -> weight 1, 3 -> weight 1/4}.
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("a", {0, 0, 1}, 2));
  cols.push_back(data::Column::FromCodes("f", {0, 3, 1}, 4));
  data::Table t("t", std::move(cols));
  Query q(2);
  q.AddPredicate({0, Op::kEq, 0, {}}, 2);
  double w = ExecuteWeightedCount(t, q, {1});
  EXPECT_NEAR(w, 1.0 + 0.25, 1e-12);
  // Two weight columns multiply.
  double w2 = ExecuteWeightedCount(t, q, {1, 1});
  EXPECT_NEAR(w2, 1.0 + 0.0625, 1e-12);
}

// Float sums do not commute, so the weighted count must not depend on which
// threads run the scan. From the test thread or from a pool worker, the
// caller and pool helpers claim the block chunks in whatever order they
// reach them; the block sums are still added in block order.
TEST(ExecutorTest, WeightedCountIsIndependentOfTheCallingThread) {
  util::ThreadPool& pool = util::GlobalPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs a multi-threaded pool";
  constexpr int32_t kRows = 60000;
  std::vector<int32_t> filter_codes, fanout_codes;
  for (int32_t r = 0; r < kRows; ++r) {
    filter_codes.push_back(r % 5);
    fanout_codes.push_back((r * 7919) % 13);  // Weights 1/1 .. 1/13.
  }
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("a", std::move(filter_codes), 5));
  cols.push_back(data::Column::FromCodes("f", std::move(fanout_codes), 13));
  data::Table t("t", std::move(cols));
  Query q(2);
  q.AddPredicate({0, Op::kNeq, 0, {}}, 5);

  const double from_test_thread = ExecuteWeightedCount(t, q, {1});
  double from_worker = 0.0;
  pool.Submit([&] { from_worker = ExecuteWeightedCount(t, q, {1}); });
  pool.Wait();
  EXPECT_EQ(from_test_thread, from_worker);
}

TEST(ExecutorTest, MatchBitmap) {
  data::Table t = data::TinyCorrelated(100, 4);
  Query q(t.num_cols());
  q.AddPredicate({0, Op::kLe, 2, {}}, t.column(0).domain());
  auto bits = MatchBitmap(t, q, 50);
  ASSERT_EQ(bits.size(), 50u);
  for (size_t r = 0; r < bits.size(); ++r) {
    EXPECT_EQ(bits[r] != 0, q.MatchesRow(t, r));
  }
}

}  // namespace
}  // namespace uae::workload
