// core::ServableModel conformance: one value-parameterized suite that every
// implementation must pass — core::Uae, shard::ShardedUae, the SPN servable,
// router::HybridRouter, ingest::DeltaAwareModel and the nine §5 baselines.
//
// Six checks, all bitwise where they compare estimates:
//   * EstimateCards equals EstimateCard on the whole batch (per-query calls
//     in reverse order), on both halves, on an empty and a one-query batch;
//   * a clone answers like its source and reports the same metadata;
//   * fine-tuning a clone leaves the source unchanged, and a clone whose
//     FineTune returned 0 is unchanged too;
//   * a fine-tune depends only on (source, workload, spec): two clones
//     fine-tuned alike return the same count and answer alike;
//   * every estimate, an all-wildcard query's included, is finite and >= 0;
//   * an all-wildcard query comes out within 1% of num_rows().
//
// One property stays out on purpose: an upper bound of num_rows(). UAE
// answers can exceed it by float32 rounding (perfbench's `[checks]
// rounding:` lines count them), which a clamp at the serving boundary should
// fix, not a slack here.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/uae.h"
#include "data/synthetic.h"
#include "estimators/bayesnet.h"
#include "estimators/feedback_kde.h"
#include "estimators/histogram.h"
#include "estimators/kde.h"
#include "estimators/lr.h"
#include "estimators/mscn.h"
#include "estimators/oracle.h"
#include "estimators/sampling.h"
#include "estimators/spn_servable.h"
#include "ingest/delta_model.h"
#include "router/router.h"
#include "shard/sharded_uae.h"
#include "workload/generator.h"

namespace uae {
namespace {

/// Every implementation under test, trained once over one shared table.
struct Zoo {
  data::Table table;
  workload::Workload train;              ///< 60 labelled queries.
  std::vector<workload::Query> queries;  ///< 24 unlabelled test queries.
  std::vector<std::pair<std::string, std::shared_ptr<core::ServableModel>>>
      models;

  Zoo() : table(data::TinyCorrelated(1500, 3)) {
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 2;
    workload::QueryGenerator gen(table, gc, 7);
    train = gen.GenerateLabeled(60, nullptr);
    for (const auto& lq : gen.GenerateLabeled(24, nullptr)) {
      queries.push_back(lq.query);
    }

    core::UaeConfig uc;
    uc.hidden = 32;
    uc.ps_samples = 64;
    uc.seed = 11;
    auto uae = std::make_shared<core::Uae>(table, uc);
    uae->TrainDataEpochs(2);
    models.emplace_back("Uae", uae);

    shard::ShardedUaeConfig sc;
    sc.base = uc;
    sc.partition.num_shards = 3;
    auto sharded = std::make_shared<shard::ShardedUae>(table, sc);
    sharded->TrainDataEpochs(1);
    models.emplace_back("ShardedUae", sharded);

    estimators::SpnServableConfig spn;
    spn.seed = 5;
    models.emplace_back("SpnServable",
                        std::make_shared<estimators::SpnServable>(table, spn));

    auto histogram = std::make_shared<estimators::HistogramAviEstimator>(
        table, /*buckets_per_column=*/16);
    std::vector<int32_t> domains;
    for (int c = 0; c < table.num_cols(); ++c) {
      domains.push_back(table.column(c).domain());
    }
    models.emplace_back("HybridRouter",
                        std::make_shared<router::HybridRouter>(
                            uae->CloneServable(), histogram, domains));

    std::vector<std::vector<int32_t>> tail(2);
    for (size_t r = 0; r < tail.size(); ++r) {
      for (int c = 0; c < table.num_cols(); ++c) {
        tail[r].push_back(table.column(c).code_at(r));
      }
    }
    models.emplace_back("DeltaAwareModel",
                        std::make_shared<ingest::DeltaAwareModel>(
                            uae->CloneServable(), &table, std::move(tail)));

    auto lr = std::make_shared<estimators::LrEstimator>(table);
    lr->Train(train);
    models.emplace_back("LrEstimator", lr);

    estimators::MscnConfig mc;
    mc.seed = 3;
    auto mscn = std::make_shared<estimators::MscnEstimator>(table, mc);
    mscn->Train(train);
    models.emplace_back("MscnEstimator", mscn);

    auto ms = std::make_shared<estimators::MscnSamplingEstimator>(table, 200, mc);
    ms->Train(train);
    models.emplace_back("MscnSamplingEstimator", ms);

    models.emplace_back("SamplingEstimator",
                        std::make_shared<estimators::SamplingEstimator>(
                            table, 0.05, 5));
    models.emplace_back("BayesNetEstimator",
                        std::make_shared<estimators::BayesNetEstimator>(
                            table, 2000, 0.1, 5));
    models.emplace_back("KdeEstimator",
                        std::make_shared<estimators::KdeEstimator>(table, 200, 5));

    auto fkde = std::make_shared<estimators::FeedbackKdeEstimator>(table, 200, 5);
    fkde->TuneBandwidths(train, /*epochs=*/2);
    models.emplace_back("FeedbackKdeEstimator", fkde);

    models.emplace_back("HistogramAviEstimator", histogram);
    models.emplace_back("OracleEstimator",
                        std::make_shared<estimators::OracleEstimator>(table));
  }

  core::ServableModel& Model(const std::string& name) {
    for (auto& [n, m] : models) {
      if (n == name) return *m;
    }
    ADD_FAILURE() << "no model named " << name;
    return *models.front().second;
  }
};

Zoo& SharedZoo() {
  static Zoo* zoo = new Zoo();
  return *zoo;
}

/// Bitwise equality of two estimate vectors.
void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << "query " << i << ": " << got[i] << " vs " << want[i];
  }
}

class ServableConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  Zoo& zoo() { return SharedZoo(); }
  core::ServableModel& model() { return zoo().Model(GetParam()); }
};

TEST_P(ServableConformanceTest, BatchedEqualsSingleBitwise) {
  const core::ServableModel& m = model();
  const std::span<const workload::Query> all(zoo().queries);
  std::vector<double> single(all.size());
  for (size_t i = all.size(); i-- > 0;) single[i] = m.EstimateCard(all[i]);
  ExpectSameBits(m.EstimateCards(all), single);

  const size_t mid = all.size() / 2;
  ExpectSameBits(m.EstimateCards(all.subspan(0, mid)),
                 {single.begin(), single.begin() + mid});
  ExpectSameBits(m.EstimateCards(all.subspan(mid)),
                 {single.begin() + mid, single.end()});
  EXPECT_TRUE(m.EstimateCards({}).empty());
  ExpectSameBits(m.EstimateCards(all.subspan(0, 1)), {single[0]});
}

TEST_P(ServableConformanceTest, CloneAnswersLikeItsSource) {
  const core::ServableModel& m = model();
  const std::shared_ptr<core::ServableModel> clone = m.CloneServable();
  ASSERT_NE(clone, nullptr);
  ExpectSameBits(clone->EstimateCards(zoo().queries),
                 m.EstimateCards(zoo().queries));
  EXPECT_EQ(clone->num_rows(), m.num_rows());
  EXPECT_EQ(clone->seed(), m.seed());
  EXPECT_EQ(clone->SizeBytes(), m.SizeBytes());
}

TEST_P(ServableConformanceTest, FineTuningACloneLeavesTheSourceUnchanged) {
  const core::ServableModel& m = model();
  const std::vector<double> before = m.EstimateCards(zoo().queries);
  const std::shared_ptr<core::ServableModel> clone = m.CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 8;
  const size_t used = clone->FineTune(zoo().train, spec);
  EXPECT_LE(used, zoo().train.size());
  ExpectSameBits(m.EstimateCards(zoo().queries), before);
  // 0 means "the clone is still bit-identical to its source".
  if (used == 0) ExpectSameBits(clone->EstimateCards(zoo().queries), before);
}

TEST_P(ServableConformanceTest, FineTuneDependsOnlyOnSourceWorkloadAndSpec) {
  const core::ServableModel& m = model();
  const std::shared_ptr<core::ServableModel> first = m.CloneServable();
  const std::shared_ptr<core::ServableModel> second = m.CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 8;
  const size_t used_first = first->FineTune(zoo().train, spec);
  const size_t used_second = second->FineTune(zoo().train, spec);
  EXPECT_EQ(used_second, used_first);
  ExpectSameBits(second->EstimateCards(zoo().queries),
                 first->EstimateCards(zoo().queries));
}

TEST_P(ServableConformanceTest, EstimatesAreFiniteAndNonNegative) {
  const core::ServableModel& m = model();
  std::vector<workload::Query> queries = zoo().queries;
  queries.emplace_back(zoo().table.num_cols());  // All wildcards.
  const std::vector<double> cards = m.EstimateCards(queries);
  ASSERT_EQ(cards.size(), queries.size());
  for (size_t i = 0; i < cards.size(); ++i) {
    EXPECT_TRUE(std::isfinite(cards[i])) << "query " << i << ": " << cards[i];
    EXPECT_GE(cards[i], 0.0) << "query " << i;
  }
}

TEST_P(ServableConformanceTest, AllWildcardQueryAnswersNearNumRows) {
  const core::ServableModel& m = model();
  const workload::Query all_rows(zoo().table.num_cols());
  const double rows = static_cast<double>(m.num_rows());
  EXPECT_NEAR(m.EstimateCard(all_rows), rows, 0.01 * rows);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ServableConformanceTest,
    ::testing::Values("Uae", "ShardedUae", "SpnServable", "HybridRouter",
                      "DeltaAwareModel", "LrEstimator", "MscnEstimator",
                      "MscnSamplingEstimator", "SamplingEstimator",
                      "BayesNetEstimator", "KdeEstimator",
                      "FeedbackKdeEstimator", "HistogramAviEstimator",
                      "OracleEstimator"),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace uae
