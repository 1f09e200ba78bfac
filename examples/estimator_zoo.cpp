// The estimator zoo: trains every baseline family of §5.1.4 on one table and
// prints a side-by-side q-error comparison — a miniature of Tables 2-4.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/uae.h"
#include "data/synthetic.h"
#include "estimators/bayesnet.h"
#include "estimators/histogram.h"
#include "estimators/kde.h"
#include "estimators/lr.h"
#include "estimators/mscn.h"
#include "estimators/sampling.h"
#include "estimators/spn_servable.h"
#include "shard/sharded_uae.h"
#include "workload/generator.h"
#include "workload/metrics.h"

int main() {
  using namespace uae;
  data::Table table = data::SyntheticCensus(20000, 2);
  workload::TrainTestWorkloads w = workload::GenerateTrainTest(table, 300, 80, 9);

  std::vector<std::pair<std::string, std::shared_ptr<const core::ServableModel>>>
      zoo;
  zoo.emplace_back("Histogram-AVI",
                   std::make_shared<estimators::HistogramAviEstimator>(table, 64));
  zoo.emplace_back("Sampling",
                   std::make_shared<estimators::SamplingEstimator>(table, 0.05, 11));
  zoo.emplace_back("KDE",
                   std::make_shared<estimators::KdeEstimator>(table, 1500, 12));
  zoo.emplace_back("BayesNet", std::make_shared<estimators::BayesNetEstimator>(
                                   table, 20000, 0.1, 13));
  zoo.emplace_back("DeepDB-SPN", std::make_shared<estimators::SpnServable>(
                                     table, estimators::SpnServableConfig{}));

  auto lr = std::make_shared<estimators::LrEstimator>(table);
  lr->Train(w.train);
  zoo.emplace_back("LR", lr);

  estimators::MscnConfig mc;
  mc.epochs = 12;
  auto mscn = std::make_shared<estimators::MscnEstimator>(table, mc);
  mscn->Train(w.train);
  zoo.emplace_back("MSCN-base", mscn);

  core::UaeConfig uc;
  uc.hidden = 48;
  uc.ps_samples = 128;
  auto uae = std::make_shared<core::Uae>(table, uc);
  uae->TrainHybridEpochs(w.train, 2);
  zoo.emplace_back("UAE", uae);

  shard::ShardedUaeConfig sharded_cfg;
  sharded_cfg.base = uc;
  sharded_cfg.partition.num_shards = 4;
  auto sharded = std::make_shared<shard::ShardedUae>(table, sharded_cfg);
  sharded->TrainDataEpochs(2);
  zoo.emplace_back("Sharded-4x", sharded);

  for (const auto& [name, model] : zoo) {
    util::ErrorSummary s = util::Summarize(workload::EvaluateQErrorsBatched(
        w.test_in_workload, [&](std::span<const workload::Query> qs) {
          return model->EstimateCards(qs);
        }));
    std::printf("%-14s %6zuKB  median=%7.3f  p95=%8.3f  max=%9.2f\n", name.c_str(),
                model->SizeBytes() >> 10, s.median, s.p95, s.max);
  }
  return 0;
}
