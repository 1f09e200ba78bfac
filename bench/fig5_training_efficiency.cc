// Reproduces Figure 5: (1) training progress — epoch number vs max q-error on
// Census in-workload queries, with per-epoch wall time; (2) estimation
// latency (ms/query) of all estimators on the DMV analog.
#include <cstdio>

#include "bench/harness.h"
#include "util/stopwatch.h"

namespace uae {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  bench::BenchConfig config = bench::BenchConfig::FromFlags(flags);
  int epochs = static_cast<int>(flags.GetInt("epochs", 6));

  // ---- (1) Epoch vs max error on Census --------------------------------------
  {
    size_t rows = static_cast<size_t>(flags.GetInt("rows", 48000));
    data::Table census = bench::BuildDataset("census", rows, config.seed);
    workload::TrainTestWorkloads w =
        workload::GenerateTrainTest(census, 600, 120, config.seed + 1);
    core::UaeConfig uc = config.ToUaeConfig();
    core::Uae uae(census, uc);
    std::printf("=== Figure 5(1): UAE training progress on Census ===\n");
    std::printf("%6s %12s %12s %12s\n", "epoch", "epoch_sec", "data_loss",
                "max_qerror");
    // Compile the hybrid workload once; evaluate max error after each epoch.
    for (int e = 0; e < epochs; ++e) {
      double epoch_sec = 0.0, data_loss = 0.0;
      uae.TrainHybridEpochs(w.train, 1, [&](const core::TrainStats& s) {
        epoch_sec = s.seconds;
        data_loss = s.data_loss;
      });
      double max_err = 0.0;
      for (const auto& lq : w.test_in_workload) {
        max_err =
            std::max(max_err, workload::QError(uae.EstimateCard(lq.query), lq.card));
      }
      std::printf("%6d %12.1f %12.3f %12.2f\n", e + 1, epoch_sec, data_loss, max_err);
      std::fflush(stdout);
    }
  }

  // ---- (2) Estimation latency on DMV ------------------------------------------
  {
    size_t rows = static_cast<size_t>(flags.GetInt("lat_rows", 30000));
    size_t n_queries = static_cast<size_t>(flags.GetInt("lat_queries", 60));
    data::Table dmv = bench::BuildDataset("dmv", rows, config.seed);
    workload::TrainTestWorkloads w =
        workload::GenerateTrainTest(dmv, 400, n_queries, config.seed + 2);
    core::UaeConfig uc = config.ToUaeConfig();

    std::printf("\n=== Figure 5(2): estimation latency on DMV (ms/query) ===\n");
    auto time_estimator = [&](const std::string& name,
                              const std::function<double(const workload::Query&)>& est) {
      // Warmup one query, then time the workload.
      est(w.test_in_workload[0].query);
      util::Stopwatch t;
      double sink = 0;
      for (const auto& lq : w.test_in_workload) sink += est(lq.query);
      double ms = t.ElapsedMillis() / static_cast<double>(w.test_in_workload.size());
      std::printf("%-16s %10.3f ms/query (checksum %.1f)\n", name.c_str(), ms, sink);
      std::fflush(stdout);
    };

    estimators::LrEstimator lr(dmv);
    lr.Train(w.train);
    time_estimator("LR", [&](const workload::Query& q) { return lr.EstimateCard(q); });

    estimators::MscnConfig mc;
    mc.epochs = 4;
    estimators::MscnEstimator mscn(dmv, mc);
    mscn.Train(w.train);
    time_estimator("MSCN-base",
                   [&](const workload::Query& q) { return mscn.EstimateCard(q); });

    estimators::MscnSamplingEstimator ms(dmv, 1000, mc);
    ms.Train(w.train);
    time_estimator("MSCN+sampling",
                   [&](const workload::Query& q) { return ms.EstimateCard(q); });

    estimators::SamplingEstimator sampling(dmv, 0.05, config.seed);
    time_estimator("Sampling",
                   [&](const workload::Query& q) { return sampling.EstimateCard(q); });

    estimators::BayesNetEstimator bn(dmv, 20000, 0.1, config.seed);
    time_estimator("BayesNet",
                   [&](const workload::Query& q) { return bn.EstimateCard(q); });

    estimators::KdeEstimator kde(dmv, 2000, config.seed);
    time_estimator("KDE", [&](const workload::Query& q) { return kde.EstimateCard(q); });

    estimators::SpnServable spn(dmv, estimators::SpnServableConfig{});
    time_estimator("DeepDB",
                   [&](const workload::Query& q) { return spn.EstimateCard(q); });

    core::Uae naru(dmv, uc);
    naru.TrainDataEpochs(1);
    time_estimator("Naru",
                   [&](const workload::Query& q) { return naru.EstimateCard(q); });
    time_estimator("UAE",
                   [&](const workload::Query& q) { return naru.EstimateCard(q); });
  }
  return 0;
}

}  // namespace
}  // namespace uae

int main(int argc, char** argv) { return uae::Run(argc, argv); }
