// Incremental query workload (§4.5), production-shaped: the model is served
// behind EstimationService while the online adaptation loop —
// FeedbackCollector -> DriftMonitor -> AdaptationController — notices each
// workload shift from query feedback alone, fine-tunes a clone in the
// background, and hot-swaps it. A data-only Naru baseline goes stale.
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "core/uae.h"
#include "data/synthetic.h"
#include "online/controller.h"
#include "serve/service.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

int main() {
  using namespace uae;
  data::Table table = data::SyntheticDmv(20000, 3);

  // Initial training on data only.
  core::UaeConfig config;
  config.hidden = 64;
  config.ps_samples = 128;
  auto uae = std::make_shared<core::Uae>(table, config);
  core::Uae naru(table, config);
  uae->TrainDataEpochs(1);
  naru.TrainDataEpochs(1);

  // The serving stack + the closed adaptation loop.
  serve::EstimationService service(uae);
  online::FeedbackCollector collector({.capacity = 2048});
  online::DriftMonitor monitor(
      {.window = 512, .min_samples = 64, .median_threshold = 1.5, .p95_threshold = 10.0});
  online::AdaptationConfig acfg;
  acfg.finetune_steps = 150;
  acfg.min_feedback = 64;
  online::AdaptationController controller(&service, &collector, &monitor, acfg);

  auto mean_qerror = [&](auto&& estimate, const workload::Workload& test) {
    double total = 0;
    for (const auto& lq : test) total += workload::QError(estimate(lq.query), lq.card);
    return total / static_cast<double>(test.size());
  };

  // The workload focuses on a moving narrow band of the bounded column.
  std::unordered_set<uint64_t> seen;
  for (int phase = 0; phase < 3; ++phase) {
    workload::GeneratorConfig gc;
    gc.center_min = 0.3 * phase;
    gc.center_max = 0.3 * phase + 0.3;
    gc.min_filters = 1;
    gc.max_filters = 2;
    gc.target_volume = 0.05;
    workload::QueryGenerator gen(table, gc, 100 + phase);

    // Live traffic: estimates are served, queries execute, true cardinalities
    // flow back as feedback. Nobody tells the loop that the workload shifted.
    std::vector<workload::Query> traffic;
    for (int i = 0; i < 300; ++i) {
      traffic.push_back(gen.Generate());
      seen.insert(traffic.back().Fingerprint());
    }
    std::vector<int64_t> truths = workload::ExecuteCounts(table, traffic);
    for (size_t i = 0; i < traffic.size(); ++i) {
      serve::ServeResult res = service.Estimate(traffic[i]);
      controller.OnFeedback(traffic[i], res, static_cast<double>(truths[i]));
    }

    online::DriftReport report = monitor.Check();
    online::AdaptationResult result = controller.AdaptIfDrifted();

    workload::QueryGenerator test_gen(table, gc, 200 + phase);
    workload::Workload test = test_gen.GenerateLabeled(60, &seen);
    std::printf(
        "phase %d (centers %.1f-%.1f): drift median %.2f (fired=%d) -> %s"
        " | generation %llu | Naru mean q-error %.3f | UAE (adapted) %.3f\n",
        phase + 1, gc.center_min, gc.center_max, report.median,
        report.fired ? 1 : 0, online::AdaptOutcomeName(result.outcome),
        static_cast<unsigned long long>(service.CurrentGeneration()),
        mean_qerror([&](const workload::Query& q) { return naru.EstimateCard(q); },
                    test),
        mean_qerror([&](const workload::Query& q) { return service.EstimateCard(q); },
                    test));
  }

  online::AdaptationStats stats = controller.Stats();
  std::printf("adaptations: %llu published, %llu rejected by guard, "
              "%llu skipped; final generation %llu\n",
              static_cast<unsigned long long>(stats.published),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.skipped),
              static_cast<unsigned long long>(service.CurrentGeneration()));
  return 0;
}
