// Progressive sampling: on a small table where the model can be trained close
// to the true distribution, PS estimates must approach true selectivities;
// with wildcard-only targets the estimate must be exactly 1.
#include <gtest/gtest.h>

#include "core/progressive.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::core {
namespace {

UaeConfig TestConfig() {
  UaeConfig cfg;
  cfg.hidden = 48;
  cfg.blocks = 1;
  cfg.data_batch = 256;
  cfg.ps_samples = 256;
  cfg.lr = 5e-3f;
  cfg.seed = 17;
  return cfg;
}

TEST(ProgressiveTest, UnconstrainedQueryIsOne) {
  data::Table t = data::TinyCorrelated(300, 2);
  Uae uae(t, TestConfig());
  workload::Query q(t.num_cols());
  EXPECT_DOUBLE_EQ(uae.EstimateSelectivity(q), 1.0);
}

TEST(ProgressiveTest, TrainedModelApproximatesTrueSelectivity) {
  data::Table t = data::TinyCorrelated(4000, 3);
  Uae uae(t, TestConfig());
  uae.TrainDataEpochs(30);

  util::Rng rng(5);
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 2;
  workload::QueryGenerator gen(t, gc, 99);
  auto queries = gen.GenerateLabeled(30, nullptr);
  std::vector<double> errors;
  for (const auto& lq : queries) {
    double est = uae.EstimateCard(lq.query);
    errors.push_back(workload::QError(est, lq.card));
  }
  double median = util::Quantile(errors, 0.5);
  EXPECT_LT(median, 1.6) << "median q-error too high after training";
}

TEST(ProgressiveTest, PointQueryMatchesJointFrequency) {
  data::Table t = data::TinyCorrelated(4000, 3);
  Uae uae(t, TestConfig());
  uae.TrainDataEpochs(30);
  // Point query on the most frequent joint value.
  workload::Query q(t.num_cols());
  q.AddPredicate({0, workload::Op::kEq, 0, {}}, t.column(0).domain());
  q.AddPredicate({1, workload::Op::kEq, 0, {}}, t.column(1).domain());
  q.AddPredicate({2, workload::Op::kEq, 0, {}}, t.column(2).domain());
  double truth = static_cast<double>(workload::ExecuteCount(t, q));
  double est = uae.EstimateCard(q);
  EXPECT_LT(workload::QError(est, truth), 1.5);
}

// Property sweep: Monte-Carlo error of the PS estimate shrinks as the sample
// count grows (averaged over repeated estimates to tame run-to-run noise).
class PsConvergence : public ::testing::TestWithParam<int> {};

TEST_P(PsConvergence, ErrorShrinksWithSamples) {
  static data::Table* t = new data::Table(data::TinyCorrelated(4000, 3));
  static Uae* uae = [] {
    Uae* u = new Uae(*t, TestConfig());
    u->TrainDataEpochs(25);
    return u;
  }();
  workload::Query q(t->num_cols());
  q.AddPredicate({0, workload::Op::kLe, 2, {}}, t->column(0).domain());
  q.AddPredicate({2, workload::Op::kGe, 2, {}}, t->column(2).domain());
  QueryTargets targets = BuildTargets(q, *t, uae->schema());
  double truth = static_cast<double>(workload::ExecuteCount(*t, q)) /
                 static_cast<double>(t->num_rows());
  int samples = GetParam();
  util::Rng rng(static_cast<uint64_t>(samples) * 7 + 1);
  double abs_err = 0.0;
  const int reps = 12;
  for (int r = 0; r < reps; ++r) {
    double est = ProgressiveSample(uae->model(), targets, samples, &rng);
    abs_err += std::fabs(est - truth);
  }
  abs_err /= reps;
  // Loose per-size ceilings: MC error ~ 1/sqrt(S) plus model bias.
  double ceiling = samples >= 256 ? 0.05 : (samples >= 64 ? 0.08 : 0.15);
  EXPECT_LT(abs_err / std::max(truth, 1e-3), ceiling + 0.5)
      << "samples=" << samples;
  // And the estimate is a valid probability.
  EXPECT_GE(truth, 0.0);
}

INSTANTIATE_TEST_SUITE_P(SampleCounts, PsConvergence,
                         ::testing::Values(16, 64, 256));

TEST(ProgressiveTest, StdErrorBracketsTruth) {
  data::Table t = data::TinyCorrelated(4000, 3);
  Uae uae(t, TestConfig());
  uae.TrainDataEpochs(25);
  workload::Query q(t.num_cols());
  q.AddPredicate({0, workload::Op::kLe, 3, {}}, t.column(0).domain());
  q.AddPredicate({1, workload::Op::kGe, 1, {}}, t.column(1).domain());
  PsEstimate est = uae.EstimateWithError(q);
  EXPECT_EQ(est.samples, 256);
  EXPECT_GT(est.selectivity, 0.0);
  EXPECT_GT(est.std_error, 0.0);
  // The MC interval (inflated for model bias) should cover the truth.
  double truth = static_cast<double>(workload::ExecuteCount(t, q)) /
                 static_cast<double>(t.num_rows());
  EXPECT_NEAR(est.selectivity, truth, 8 * est.std_error + 0.05);
}

TEST(ProgressiveTest, StdErrorZeroForWildcardOnly) {
  data::Table t = data::TinyCorrelated(500, 2);
  Uae uae(t, TestConfig());
  workload::Query q(t.num_cols());
  PsEstimate est = uae.EstimateWithError(q);
  EXPECT_DOUBLE_EQ(est.selectivity, 1.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
}

TEST(ProgressiveTest, SampleTuplesFollowsMarginals) {
  data::Table t = data::TinyCorrelated(4000, 3);
  Uae uae(t, TestConfig());
  uae.TrainDataEpochs(25);
  auto tuples = uae.Sample(4000);
  ASSERT_EQ(tuples.size(), 4000u);
  // Empirical marginal of column 0 vs data marginal.
  std::vector<double> counts(static_cast<size_t>(t.column(0).domain()), 0.0);
  for (const auto& tup : tuples) {
    ASSERT_EQ(tup.size(), 3u);
    ASSERT_GE(tup[0], 0);
    ASSERT_LT(tup[0], t.column(0).domain());
    counts[static_cast<size_t>(tup[0])] += 1.0;
  }
  const auto& freq = t.column(0).Frequencies();
  for (size_t v = 0; v < counts.size(); ++v) {
    double model_p = counts[v] / 4000.0;
    double data_p = static_cast<double>(freq[v]) / static_cast<double>(t.num_rows());
    EXPECT_NEAR(model_p, data_p, 0.06) << "marginal mismatch at value " << v;
  }
}

}  // namespace
}  // namespace uae::core
