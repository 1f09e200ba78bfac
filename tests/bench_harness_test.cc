// bench/: the shared harness — flag parsing, dataset dispatch, and the
// hoisted-workload evaluation path (prepare once, evaluate many estimator
// rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "data/synthetic.h"
#include "estimators/oracle.h"
#include "util/quantiles.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

TEST(FlagsTest, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--rows=5000", "--lambda=0.01", "--name=dmv",
                        "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rows", 0), 5000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lambda", 0.0), 0.01);
  EXPECT_EQ(flags.GetString("name", ""), "dmv");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  // Defaults for absent keys.
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_EQ(flags.GetString("missing", "x"), "x");
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagsTest, IgnoresNonFlagArguments) {
  const char* argv[] = {"prog", "positional", "-single-dash", "--ok=1"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("ok", 0), 1);
  EXPECT_EQ(flags.GetInt("positional", 3), 3);
}

TEST(BenchConfigTest, FromFlagsOverrides) {
  const char* argv[] = {"prog", "--rows=123", "--epochs=9", "--hidden=32"};
  Flags flags(4, const_cast<char**>(argv));
  BenchConfig config = BenchConfig::FromFlags(flags);
  EXPECT_EQ(config.rows, 123u);
  EXPECT_EQ(config.uae_epochs, 9);
  EXPECT_EQ(config.hidden, 32);
  core::UaeConfig uc = config.ToUaeConfig();
  EXPECT_EQ(uc.hidden, 32);
}

TEST(BenchDatasetTest, DispatchesByName) {
  data::Table dmv = BuildDataset("dmv", 500, 1);
  EXPECT_EQ(dmv.num_cols(), 11);
  data::Table census = BuildDataset("census", 500, 1);
  EXPECT_EQ(census.num_cols(), 14);
  data::Table kdd = BuildDataset("kdd", 500, 1);
  EXPECT_EQ(kdd.num_cols(), 100);
}

/// Counts the per-workload evaluation work an estimator row triggers — the
/// regression the PreparedWorkload hoist fixes: setup must happen once per
/// workload, not once per (estimator row x workload).
class CountingEstimator : public core::ServableModel {
 public:
  explicit CountingEstimator(double card) : card_(card) {}
  double EstimateCard(const workload::Query&) const override {
    single_calls.fetch_add(1);
    return card_;
  }
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override {
    batch_calls.fetch_add(1);
    batched_queries.fetch_add(queries.size());
    return std::vector<double>(queries.size(), card_);
  }
  size_t SizeBytes() const override { return 0; }
  size_t num_rows() const override { return 0; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<CountingEstimator>(card_);
  }

  mutable std::atomic<int> single_calls{0};
  mutable std::atomic<int> batch_calls{0};
  mutable std::atomic<size_t> batched_queries{0};

 private:
  double card_;
};

struct HarnessFixture {
  data::Table table = data::TinyCorrelated(400, 3);
  workload::Workload in_workload, random_workload;

  HarnessFixture() {
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 2;
    workload::QueryGenerator gen(table, gc, 9);
    for (int i = 0; i < 12; ++i) {
      workload::LabeledQuery lq;
      lq.query = gen.Generate();
      lq.card = static_cast<double>(workload::ExecuteCount(table, lq.query));
      (i % 2 == 0 ? in_workload : random_workload).push_back(lq);
    }
  }
};

TEST(EvaluateEstimatorTest, PreparedPathMatchesLegacyPathExactly) {
  HarnessFixture f;
  estimators::OracleEstimator oracle(f.table);
  ResultRow legacy =
      EvaluateEstimator("oracle", oracle, f.in_workload, f.random_workload);
  PreparedWorkload prep_in = PrepareWorkload(f.in_workload);
  PreparedWorkload prep_random = PrepareWorkload(f.random_workload);
  ResultRow prepared = EvaluateEstimator("oracle", oracle, prep_in, prep_random);
  EXPECT_DOUBLE_EQ(legacy.in_workload.mean, prepared.in_workload.mean);
  EXPECT_DOUBLE_EQ(legacy.in_workload.median, prepared.in_workload.median);
  EXPECT_DOUBLE_EQ(legacy.in_workload.max, prepared.in_workload.max);
  EXPECT_DOUBLE_EQ(legacy.random.mean, prepared.random.mean);
  EXPECT_DOUBLE_EQ(legacy.random.max, prepared.random.max);
  EXPECT_EQ(legacy.size_bytes, prepared.size_bytes);
}

TEST(QuantileAggregationTest, HarnessQuantilesAreSharedUtilQuantiles) {
  // Regression pin: every bench aggregation routes through util/quantiles —
  // no bench keeps a private nearest-rank copy. On a fixed vector the shared
  // linear-interpolation quantile is pinned exactly, and where a nearest-rank
  // reimplementation would diverge (even-count medians) we assert the
  // divergence, so reintroducing one cannot silently pass.
  const std::vector<double> odd = {5.0, 1.0, 9.0, 3.0, 7.0};
  // Odd count: interpolation and nearest-rank agree on the median.
  EXPECT_DOUBLE_EQ(util::Quantile(odd, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(util::Quantile(odd, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::Quantile(odd, 1.0), 9.0);

  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  // Even count: interpolation averages the middle pair...
  EXPECT_DOUBLE_EQ(util::Quantile(even, 0.5), 2.5);
  // ...where nearest-rank (ceil(q*n) with either rounding) picks an element.
  auto nearest_rank = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  EXPECT_EQ(nearest_rank(even, 0.5), 2.0);
  EXPECT_NE(util::Quantile(even, 0.5), nearest_rank(even, 0.5));
  // Pin the interpolated p95 of a fixed 10-sample vector (pos = 8.55).
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(util::Quantile(ten, 0.95), 9.55);

  // And Summarize is Quantile applied at the canonical points.
  util::ErrorSummary s = util::Summarize(ten);
  EXPECT_DOUBLE_EQ(s.median, util::Quantile(ten, 0.5));
  EXPECT_DOUBLE_EQ(s.p95, util::Quantile(ten, 0.95));
  EXPECT_DOUBLE_EQ(s.p99, util::Quantile(ten, 0.99));
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(QuantileAggregationTest, HarnessSummariesEqualUtilSummarizeOfQErrors) {
  // The harness's per-workload ErrorSummary must be exactly
  // util::Summarize(per-query q-errors) — same shared aggregation, no local
  // re-derivation anywhere between EstimateCards and the report row.
  HarnessFixture f;
  estimators::OracleEstimator oracle(f.table);
  PreparedWorkload prep_in = PrepareWorkload(f.in_workload);
  PreparedWorkload prep_random = PrepareWorkload(f.random_workload);
  ResultRow row = EvaluateEstimator("oracle", oracle, prep_in, prep_random);

  std::vector<double> cards = oracle.EstimateCards(prep_in.queries);
  std::vector<double> errors;
  for (size_t i = 0; i < cards.size(); ++i) {
    errors.push_back(workload::QError(cards[i], prep_in.true_cards[i]));
  }
  util::ErrorSummary expect = util::Summarize(errors);
  EXPECT_DOUBLE_EQ(row.in_workload.mean, expect.mean);
  EXPECT_DOUBLE_EQ(row.in_workload.median, expect.median);
  EXPECT_DOUBLE_EQ(row.in_workload.p95, expect.p95);
  EXPECT_DOUBLE_EQ(row.in_workload.p99, expect.p99);
  EXPECT_DOUBLE_EQ(row.in_workload.max, expect.max);
  EXPECT_EQ(row.in_workload.count, expect.count);
}

TEST(EvaluateEstimatorTest, PreparedWorkloadIsReusedAcrossEstimatorRows) {
  HarnessFixture f;
  PreparedWorkload prep_in = PrepareWorkload(f.in_workload);
  PreparedWorkload prep_random = PrepareWorkload(f.random_workload);
  ASSERT_EQ(prep_in.queries.size(), f.in_workload.size());
  ASSERT_EQ(prep_in.true_cards.size(), f.in_workload.size());
  const workload::Query* queries_before = prep_in.queries.data();

  CountingEstimator a(10.0), b(20.0);
  (void)EvaluateEstimator("a", a, prep_in, prep_random);
  (void)EvaluateEstimator("b", b, prep_in, prep_random);

  // Exactly ONE batched call per (row, workload) — never a per-query loop,
  // never a second setup pass — and each call sees the whole workload.
  EXPECT_EQ(a.batch_calls.load(), 2);
  EXPECT_EQ(b.batch_calls.load(), 2);
  EXPECT_EQ(a.single_calls.load(), 0);
  EXPECT_EQ(a.batched_queries.load(),
            f.in_workload.size() + f.random_workload.size());
  // Evaluation does not rebuild or mutate the prepared workload.
  EXPECT_EQ(prep_in.queries.data(), queries_before);
  EXPECT_EQ(prep_in.queries.size(), f.in_workload.size());
}

}  // namespace
}  // namespace uae::bench
