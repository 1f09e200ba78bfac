// estimators/: the classic baselines — sampling, AVI histograms, KDE,
// Feedback-KDE, BayesNet (Chow-Liu structure recovery), oracle.
#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "estimators/bayesnet.h"
#include "estimators/feedback_kde.h"
#include "estimators/histogram.h"
#include "estimators/kde.h"
#include "estimators/oracle.h"
#include "estimators/sampling.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::estimators {
namespace {

workload::Workload TestQueries(const data::Table& t, int count, uint64_t seed) {
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(t, gc, seed);
  return gen.GenerateLabeled(static_cast<size_t>(count), nullptr);
}

double MedianError(const core::ServableModel& est, const workload::Workload& w) {
  std::vector<double> errors;
  for (const auto& lq : w) {
    errors.push_back(workload::QError(est.EstimateCard(lq.query), lq.card));
  }
  return util::Quantile(errors, 0.5);
}

TEST(OracleTest, ExactByConstruction) {
  data::Table t = data::TinyCorrelated(2000, 1);
  OracleEstimator oracle(t);
  for (const auto& lq : TestQueries(t, 20, 2)) {
    EXPECT_DOUBLE_EQ(oracle.EstimateCard(lq.query), lq.card);
  }
  EXPECT_EQ(oracle.SizeBytes(), 0u);
}

TEST(SamplingTest, FullSampleIsExact) {
  data::Table t = data::TinyCorrelated(1500, 3);
  SamplingEstimator sampling(t, 1.0, 7);
  for (const auto& lq : TestQueries(t, 20, 4)) {
    EXPECT_DOUBLE_EQ(sampling.EstimateCard(lq.query), lq.card);
  }
}

TEST(SamplingTest, SmallSampleApproximates) {
  data::Table t = data::SyntheticCensus(20000, 5);
  SamplingEstimator sampling(t, 0.10, 7);
  EXPECT_NEAR(static_cast<double>(sampling.sample_rows()), 2000.0, 1.0);
  auto w = TestQueries(t, 40, 6);
  EXPECT_LT(MedianError(sampling, w), 2.0);
  EXPECT_EQ(sampling.SizeBytes(),
            sampling.sample_rows() * static_cast<size_t>(t.num_cols()) * 4);
}

TEST(HistogramTest, SingleColumnRangeExact) {
  // With one bucket per distinct code the histogram is exact for ranges.
  data::Table t = data::TinyCorrelated(3000, 9);
  HistogramAviEstimator hist(t, /*buckets_per_column=*/1024);
  workload::Query q(t.num_cols());
  q.AddPredicate({0, workload::Op::kLe, 4, {}}, t.column(0).domain());
  double truth = static_cast<double>(workload::ExecuteCount(t, q));
  EXPECT_NEAR(hist.EstimateCard(q), truth, truth * 0.02 + 1);
}

TEST(HistogramTest, AviUnderestimatesCorrelation) {
  // On a perfectly correlated pair (b == a), AVI multiplies marginals and is
  // badly wrong for the joint point query — the motivating failure (§1).
  std::vector<int32_t> a;
  for (int i = 0; i < 4000; ++i) a.push_back(i % 4);
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("a", std::vector<int32_t>(a), 4));
  cols.push_back(data::Column::FromCodes("b", std::move(a), 4));
  data::Table t("corr", std::move(cols));
  HistogramAviEstimator hist(t, 16);
  workload::Query q(2);
  q.AddPredicate({0, workload::Op::kEq, 1, {}}, 4);
  q.AddPredicate({1, workload::Op::kEq, 1, {}}, 4);
  // Truth = 1000; AVI predicts 4000 * (1/4) * (1/4) = 250.
  EXPECT_NEAR(hist.EstimateCard(q), 250.0, 25.0);
}

TEST(KdeTest, ApproximatesOnSmoothData) {
  data::Table t = data::SyntheticCensus(10000, 11);
  KdeEstimator kde(t, 1500, 13);
  auto w = TestQueries(t, 40, 14);
  EXPECT_LT(MedianError(kde, w), 3.0);
}

TEST(KdeTest, BandwidthGradientMatchesFiniteDifference) {
  data::Table t = data::SyntheticCensus(3000, 15);
  KdeEstimator kde(t, 300, 16);
  auto w = TestQueries(t, 5, 17);
  for (const auto& lq : w) {
    std::vector<double> grad;
    kde.SelectivityAndGrad(lq.query, &grad);
    for (size_t d = 0; d < kde.bandwidths().size(); d += 5) {
      double h = 1e-4 * std::max(1.0, kde.bandwidths()[d]);
      double orig = kde.bandwidths()[d];
      kde.bandwidths()[d] = orig + h;
      double up = kde.SelectivityAndGrad(lq.query, nullptr);
      kde.bandwidths()[d] = orig - h;
      double down = kde.SelectivityAndGrad(lq.query, nullptr);
      kde.bandwidths()[d] = orig;
      double numeric = (up - down) / (2 * h);
      EXPECT_NEAR(grad[d], numeric, 1e-4 + 0.05 * std::fabs(numeric))
          << "bandwidth " << d;
    }
  }
}

TEST(FeedbackKdeTest, TuningReducesWorkloadError) {
  data::Table t = data::SyntheticCensus(8000, 19);
  workload::GeneratorConfig gc;
  workload::QueryGenerator gen(t, gc, 20);
  auto train = gen.GenerateLabeled(60, nullptr);

  FeedbackKdeEstimator fkde(t, 500, 21);
  double mse_before = 0;
  for (const auto& lq : train) {
    double sel = fkde.SelectivityAndGrad(lq.query, nullptr);
    mse_before += (sel - lq.selectivity) * (sel - lq.selectivity);
  }
  mse_before /= static_cast<double>(train.size());
  double mse_after = fkde.TuneBandwidths(train, 8);
  EXPECT_LE(mse_after, mse_before * 1.001);
}

TEST(BayesNetTest, RecoversPlantedChain) {
  // c0 -> c1 -> c2 chain with strong links: the Chow-Liu tree must connect
  // adjacent columns (in some direction).
  util::Rng rng(23);
  size_t n = 8000;
  std::vector<int32_t> c0(n), c1(n), c2(n);
  for (size_t i = 0; i < n; ++i) {
    c0[i] = static_cast<int32_t>(rng.UniformInt(0, 5));
    c1[i] = rng.Bernoulli(0.9) ? c0[i] : static_cast<int32_t>(rng.UniformInt(0, 5));
    c2[i] = rng.Bernoulli(0.9) ? c1[i] : static_cast<int32_t>(rng.UniformInt(0, 5));
  }
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("c0", std::move(c0), 6));
  cols.push_back(data::Column::FromCodes("c1", std::move(c1), 6));
  cols.push_back(data::Column::FromCodes("c2", std::move(c2), 6));
  data::Table t("chain", std::move(cols));
  BayesNetEstimator bn(t);
  // Tree edges: parent(1) ∈ {0,2}, and column 2's parent is 1 (c2 ⊥ c0 | c1,
  // and MI(c2,c1) > MI(c2,c0)).
  EXPECT_EQ(bn.parent(0), -1);
  EXPECT_EQ(bn.parent(1), 0);
  EXPECT_EQ(bn.parent(2), 1);
}

TEST(BayesNetTest, AccurateOnTreeDistributedData) {
  data::Table t = data::TinyCorrelated(8000, 25);
  BayesNetEstimator bn(t);
  auto w = TestQueries(t, 40, 26);
  EXPECT_LT(MedianError(bn, w), 1.5);
}

TEST(BayesNetTest, HandlesAllConstraintKinds) {
  data::Table t = data::TinyCorrelated(2000, 27);
  BayesNetEstimator bn(t);
  workload::Query q(t.num_cols());
  q.AddPredicate({0, workload::Op::kNeq, 2, {}}, t.column(0).domain());
  q.AddPredicate({1, workload::Op::kIn, 0, {0, 3}}, t.column(1).domain());
  q.AddPredicate({2, workload::Op::kGe, 1, {}}, t.column(2).domain());
  double est = bn.EstimateCard(q);
  double truth = static_cast<double>(workload::ExecuteCount(t, q));
  EXPECT_LT(workload::QError(est, truth), 2.0);
}

}  // namespace
}  // namespace uae::estimators
