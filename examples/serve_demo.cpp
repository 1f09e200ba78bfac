// Serving demo: the full train-while-serving loop from the ROADMAP north
// star. An EstimationService answers concurrent clients through micro-batched
// progressive sampling and a generation-keyed result cache, while a
// background trainer keeps learning from executed-query feedback (UAE-Q,
// §4.5 workload adaptation) and hot-swaps refreshed model snapshots into the
// service — estimates never block on training.
//
//   $ ./build/example_serve_demo
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/uae.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

int main() {
  using namespace uae;

  // 1) Data + an initial model trained on data only (UAE-D / Naru regime).
  data::Table table = data::SyntheticDmv(/*rows=*/6000, /*seed=*/1);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = 64;
  auto live = std::make_unique<core::Uae>(table, config);
  live->TrainDataEpochs(1);
  std::printf("initial model trained (%zu KB)\n", live->SizeBytes() >> 10);

  // 2) Stand the service up on a frozen snapshot of the live model.
  serve::ServiceConfig scfg;
  scfg.max_batch = 32;
  serve::EstimationService service(
      std::shared_ptr<const core::Uae>(live->Clone()), scfg);

  // 3) A labeled workload stands in for the production query log.
  workload::TrainTestWorkloads w =
      workload::GenerateTrainTest(table, /*train=*/150, /*test=*/40, /*seed=*/7);

  // 4) Client threads hammer the service with the held-out queries.
  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& lq : w.test_in_workload) {
          (void)service.Estimate(lq.query);
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // 5) Meanwhile the trainer ingests query feedback (L_query steps on the
  //    labeled workload) and publishes a refreshed snapshot after each burst.
  for (int burst = 0; burst < 3; ++burst) {
    live->TrainQuerySteps(w.train, /*steps=*/15);
    uint64_t gen = service.PublishSnapshot(
        std::shared_ptr<const core::Uae>(live->Clone()));
    std::printf("published snapshot generation %llu (answered so far: %llu)\n",
                static_cast<unsigned long long>(gen),
                static_cast<unsigned long long>(answered.load()));
  }
  stop.store(true);
  for (auto& c : clients) c.join();

  // 6) Accuracy through the service == accuracy of the latest snapshot.
  std::vector<double> errors;
  for (const auto& lq : w.test_in_workload) {
    serve::ServeResult res = service.Estimate(lq.query);
    errors.push_back(workload::QError(res.card, lq.card));
  }
  util::ErrorSummary summary = util::Summarize(errors);
  std::printf("held-out q-error after 3 hot swaps: median=%.3f p95=%.3f\n",
              summary.median, summary.p95);

  serve::ServiceStats stats = service.Stats();
  serve::ResultCacheStats cache = service.CacheStats();
  std::printf(
      "served %llu requests | %llu micro-batches (max %llu) | "
      "%llu cache hits | %llu snapshots\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.max_batch_observed),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(stats.snapshots_published + 1));
  return 0;
}
