// core/: the UAE facade — hybrid training (Alg. 3), incremental data and
// workload ingestion (§4.5), checkpointing, and join estimation (§4.6).
#include <filesystem>

#include <gtest/gtest.h>

#include "core/uae.h"
#include "data/imdb_star.h"
#include "data/synthetic.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/join_workload.h"
#include "workload/metrics.h"

namespace uae::core {
namespace {

UaeConfig SmallConfig() {
  UaeConfig cfg;
  cfg.hidden = 32;
  cfg.data_batch = 256;
  cfg.dps_samples = 16;
  cfg.query_batch = 8;
  cfg.ps_samples = 128;
  cfg.lr = 5e-3f;
  cfg.seed = 23;
  return cfg;
}

TEST(UaeTest, HybridTrainingImprovesAccuracy) {
  data::Table t = data::TinyCorrelated(3000, 31);
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 2;
  workload::QueryGenerator gen(t, gc, 41);
  auto train = gen.GenerateLabeled(80, nullptr);
  auto test = gen.GenerateLabeled(40, nullptr);

  Uae uae(t, SmallConfig());
  auto mean_err = [&]() {
    double s = 0;
    for (const auto& lq : test) {
      s += workload::QError(uae.EstimateCard(lq.query), lq.card);
    }
    return s / static_cast<double>(test.size());
  };
  double before = mean_err();
  int called = 0;
  uae.TrainHybridEpochs(train, 8, [&](const TrainStats& s) {
    ++called;
    EXPECT_GE(s.data_loss, 0.0);
  });
  EXPECT_EQ(called, 8);
  double after = mean_err();
  EXPECT_LT(after, before);
  EXPECT_LT(after, 2.0);
}

TEST(UaeTest, IncrementalDataIngestion) {
  // Train on a skewed first half, then ingest a second half with a different
  // distribution; estimates on the new region must improve.
  size_t n = 4000;
  data::Table full = data::TinyCorrelated(n, 51);
  data::Table first = full.Slice(0, n / 2, "first");
  data::Table delta = full.Slice(n / 2, n, "delta");

  Uae uae(first, SmallConfig());
  uae.TrainDataEpochs(15);
  EXPECT_EQ(uae.num_rows(), n / 2);
  uae.IngestDataRows(delta, 10);
  EXPECT_EQ(uae.num_rows(), n);

  // After ingestion the model's total row count and distribution cover the
  // full table: a broad query should be near-exact.
  workload::Query q(full.num_cols());
  q.AddPredicate({0, workload::Op::kLe, 3, {}}, full.column(0).domain());
  double truth = static_cast<double>(workload::ExecuteCount(full, q));
  EXPECT_LT(workload::QError(uae.EstimateCard(q), truth), 1.6);
}

TEST(UaeTest, IngestWorkloadAdaptsToShiftedQueries) {
  data::Table t = data::SyntheticDmv(6000, 61);
  UaeConfig cfg = SmallConfig();
  Uae uae(t, cfg);
  uae.TrainDataEpochs(2);

  workload::GeneratorConfig shifted;
  shifted.center_min = 0.7;
  shifted.center_max = 0.9;
  workload::QueryGenerator gen(t, shifted, 71);
  auto train = gen.GenerateLabeled(150, nullptr);
  auto test = gen.GenerateLabeled(50, nullptr);
  auto mean_err = [&]() {
    double s = 0;
    for (const auto& lq : test) {
      s += workload::QError(uae.EstimateCard(lq.query), lq.card);
    }
    return s / static_cast<double>(test.size());
  };
  double before = mean_err();
  // The shifted workload goes in through FineTune: four epochs of
  // size / query_batch UAE-Q steps each.
  FineTuneSpec spec;
  spec.query_steps =
      4 * std::max(1, static_cast<int>(train.size()) / std::max(1, cfg.query_batch));
  uae.FineTune(train, spec);
  double after = mean_err();
  EXPECT_LE(after, before * 1.05) << "workload ingestion made things worse";
}

TEST(UaeTest, SaveLoadRoundTripPreservesEstimates) {
  data::Table t = data::TinyCorrelated(1500, 81);
  UaeConfig cfg = SmallConfig();
  Uae uae(t, cfg);
  uae.TrainDataEpochs(6);
  std::string path = "/tmp/uae_core_test_ckpt.bin";
  ASSERT_TRUE(uae.Save(path).ok());

  Uae restored(t, cfg);
  ASSERT_TRUE(restored.Load(path).ok());
  workload::Query q(t.num_cols());
  q.AddPredicate({0, workload::Op::kLe, 4, {}}, t.column(0).domain());
  // Same weights + same seed state per call is not guaranteed (PS rng), so
  // compare estimates loosely.
  double a = uae.EstimateSelectivity(q);
  double b = restored.EstimateSelectivity(q);
  EXPECT_NEAR(a, b, 0.1 * std::max(a, b) + 0.01);
  std::filesystem::remove(path);
}

TEST(UaeTest, JoinEstimationOnUniverse) {
  data::ImdbStarConfig sc;
  sc.num_titles = 600;
  sc.seed = 5;
  data::JoinUniverse uni = data::BuildImdbStar(sc);
  UaeConfig cfg = SmallConfig();
  cfg.factor_threshold = 64;
  cfg.factor_bits = 5;
  Uae uae(uni, cfg);
  uae.TrainDataEpochs(10);

  workload::JoinGeneratorConfig gc;
  gc.focused = false;
  workload::JoinQueryGenerator gen(uni, gc, 91);
  auto w = gen.GenerateLabeled(25, nullptr);
  std::vector<double> errors;
  for (const auto& lq : w) {
    errors.push_back(workload::QError(uae.EstimateJoinCard(lq.query), lq.card));
  }
  EXPECT_LT(util::Quantile(errors, 0.5), 3.0) << "join median q-error too high";
}

TEST(UaeTest, HybridJoinTrainingRuns) {
  data::ImdbStarConfig sc;
  sc.num_titles = 400;
  data::JoinUniverse uni = data::BuildImdbStar(sc);
  UaeConfig cfg = SmallConfig();
  cfg.lambda = 10.f;
  Uae uae(uni, cfg);
  workload::JoinGeneratorConfig gc;
  gc.focused = true;
  workload::JoinQueryGenerator gen(uni, gc, 101);
  auto train = gen.GenerateLabeled(30, nullptr);
  uae.TrainHybridEpochs(train, 1);  // Smoke: must run through DPS with
                                    // factorized + weighted targets.
  double est = uae.EstimateJoinCard(train[0].query);
  EXPECT_GE(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(UaeTest, SizeAndSchemaIntrospection) {
  data::Table t = data::TinyCorrelated(500, 3);
  Uae uae(t, SmallConfig());
  EXPECT_GT(uae.SizeBytes(), 1000u);
  EXPECT_EQ(uae.schema().num_original(), 3);
  EXPECT_EQ(uae.num_rows(), 500u);
}

}  // namespace
}  // namespace uae::core
