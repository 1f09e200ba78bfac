// Online adaptation drift benchmark: how much q-error does the closed loop
// (serve -> feedback -> drift -> fine-tune -> hot-swap) win back after a
// workload shift, and what does one adaptation cost?
//
// Scenario (the production version of §5.4 / Table 6):
//   1. a UAE model trains on data only and starts serving;
//   2. in-distribution traffic flows, with ground-truth feedback — the drift
//      monitor stays quiet;
//   3. the workload shifts to a narrow region of the bounded column; served
//      estimates degrade, feedback q-errors spike, the monitor fires;
//   4. the controller fine-tunes a clone on the drained feedback and
//      hot-swaps it (regression-guarded).
//
// Emits BENCH_online.json in the compare_bench.py schema. The gated entry is
// `online/adaptation`: its `speedup_vs_ref` is the stale model's median
// q-error on a held-out shifted test set divided by the adapted model's — a
// machine-independent accuracy ratio gated with the usual >25% regression
// rule plus an absolute >=2x improvement floor. Adaptation latency (clone +
// fine-tune + guard + publish) is reported as `online/adaptation_latency`,
// informational (wall time does not transfer across machines).
//
// Usage:
//   bench_online_adaptation [--out=BENCH_online.json] [--rows=8000]
//                           [--base-epochs=1] [--feedback=256]
//                           [--finetune-steps=120] [--test=64] [--seed=7]
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "online/controller.h"
#include "online/drift.h"
#include "online/feedback.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/quantiles.h"
#include "util/stopwatch.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_online.json";
  int rows = 8000;
  int base_epochs = 1;
  int feedback = 256;        ///< Shifted feedback stream length.
  int warm_feedback = 96;    ///< In-distribution feedback before the shift.
  int finetune_steps = 200;
  int test = 64;             ///< Held-out shifted test queries.
  uint64_t seed = 7;
  // Shifted-region query shape: few filters and a wider bounded range give
  // mid-range cardinalities (tens..thousands), where a stale model's error is
  // actually visible — 5-filter point-like queries floor both truth and
  // estimate to ~1 row and every q-error collapses to 1.
  int shift_min_filters = 1;
  int shift_max_filters = 2;
  double shift_volume = 0.1;
};

/// Serves every query, labels it with the exact executor (batched — the
/// labeling hot path), and routes feedback into the loop.
void FeedTraffic(const data::Table& table, serve::EstimationService& service,
                 online::AdaptationController& controller,
                 const std::vector<workload::Query>& queries) {
  std::vector<int64_t> truths = workload::ExecuteCounts(table, queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    serve::ServeResult res = service.Estimate(queries[i]);
    controller.OnFeedback(queries[i], res, static_cast<double>(truths[i]));
  }
}

double MedianQError(const core::ServableModel& model,
                    const workload::Workload& test) {
  std::vector<double> errors = workload::EvaluateQErrorsBatched(
      test, [&](std::span<const workload::Query> qs) {
        return model.EstimateCards(qs);
      });
  return util::Quantile(std::move(errors), 0.5);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = std::max<int>(500, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.base_epochs = std::max<int>(1, static_cast<int>(flags.GetInt("base-epochs", opt.base_epochs)));
  opt.feedback = std::max<int>(16, static_cast<int>(flags.GetInt("feedback", opt.feedback)));
  opt.warm_feedback = std::max<int>(0, static_cast<int>(flags.GetInt("warm-feedback", opt.warm_feedback)));
  opt.finetune_steps = std::max<int>(1, static_cast<int>(flags.GetInt("finetune-steps", opt.finetune_steps)));
  opt.test = std::max<int>(8, static_cast<int>(flags.GetInt("test", opt.test)));
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(opt.seed)));
  opt.shift_min_filters = static_cast<int>(flags.GetInt("shift-min-filters", opt.shift_min_filters));
  opt.shift_max_filters = static_cast<int>(flags.GetInt("shift-max-filters", opt.shift_max_filters));
  opt.shift_volume = flags.GetDouble("shift-volume", opt.shift_volume);

  data::Table table = data::SyntheticDmv(static_cast<size_t>(opt.rows), 3);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = 128;
  config.seed = opt.seed;
  auto model = std::make_shared<core::Uae>(table, config);
  util::Stopwatch train_timer;
  model->TrainDataEpochs(opt.base_epochs);
  std::printf("base model: %d data epochs in %.1fs\n", opt.base_epochs,
              train_timer.ElapsedSeconds());

  serve::EstimationService service(model);
  online::FeedbackCollector collector({.capacity = 4096});
  online::DriftMonitor monitor({.window = 512,
                                .min_samples = 48,
                                .median_threshold = 2.0});
  online::AdaptationConfig acfg;
  acfg.finetune_steps = opt.finetune_steps;
  acfg.min_feedback = 48;
  acfg.split_seed = opt.seed;
  online::AdaptationController controller(&service, &collector, &monitor, acfg);

  // Phase 1: in-distribution traffic. The monitor must stay quiet.
  workload::GeneratorConfig in_dist;
  workload::QueryGenerator warm_gen(table, in_dist, opt.seed + 11);
  std::vector<workload::Query> warm;
  for (int i = 0; i < opt.warm_feedback; ++i) warm.push_back(warm_gen.Generate());
  FeedTraffic(table, service, controller, warm);
  online::DriftReport healthy = monitor.Check();
  std::printf("in-distribution: median q-error %.2f over %zu samples (fired=%d)\n",
              healthy.median, healthy.samples, healthy.fired ? 1 : 0);

  // Phase 2: the workload shifts to a narrow band of the bounded column.
  workload::GeneratorConfig shifted;
  shifted.center_min = 0.7;
  shifted.center_max = 0.9;
  shifted.min_filters = opt.shift_min_filters;
  shifted.max_filters = opt.shift_max_filters;
  shifted.target_volume = opt.shift_volume;
  std::unordered_set<uint64_t> seen;
  workload::QueryGenerator shift_gen(table, shifted, opt.seed + 23);
  std::vector<workload::Query> shift_stream;
  for (int i = 0; i < opt.feedback; ++i) {
    shift_stream.push_back(shift_gen.Generate());
    seen.insert(shift_stream.back().Fingerprint());
  }
  // Held-out shifted test set, deduplicated against the feedback stream.
  workload::QueryGenerator test_gen(table, shifted, opt.seed + 31);
  workload::Workload shifted_test =
      test_gen.GenerateLabeled(static_cast<size_t>(opt.test), &seen);

  FeedTraffic(table, service, controller, shift_stream);
  online::DriftReport drifted = monitor.Check();
  std::printf("after shift: median q-error %.2f over %zu samples (fired=%d)\n",
              drifted.median, drifted.samples, drifted.fired ? 1 : 0);

  double stale_median = MedianQError(*model, shifted_test);

  // Phase 3: one closed-loop adaptation (drift-triggered, regression-guarded).
  util::Stopwatch adapt_timer;
  online::AdaptationResult result = controller.AdaptIfDrifted();
  double adapt_seconds = adapt_timer.ElapsedSeconds();
  std::printf("adaptation: %s (train %zu, holdout %zu, guard %.2f -> %.2f) in %.2fs\n",
              online::AdaptOutcomeName(result.outcome), result.train_size,
              result.holdout_size, result.incumbent_median,
              result.candidate_median, adapt_seconds);

  std::shared_ptr<const serve::ModelSnapshot> snap = service.CurrentSnapshot();
  double adapted_median = MedianQError(*snap->model, shifted_test);
  double improvement = stale_median / adapted_median;
  std::printf("shifted test set: stale median %.2f -> adapted median %.2f "
              "(%.2fx, generation %lu)\n",
              stale_median, adapted_median, improvement,
              static_cast<unsigned long>(snap->generation));

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("rows", opt.rows);
  w.Member("base_epochs", opt.base_epochs);
  w.Member("warm_feedback", opt.warm_feedback);
  w.Member("feedback", opt.feedback);
  w.Member("finetune_steps", opt.finetune_steps);
  w.Member("test", opt.test);
  w.Member("seed", static_cast<int64_t>(opt.seed));
#ifdef NDEBUG
  w.Member("optimized_build", true);
#else
  w.Member("optimized_build", false);
#endif
  w.EndObject();
  w.Key("benchmarks").BeginArray();
  // Gated: accuracy win of the adapted snapshot over the stale one.
  w.BeginObject();
  w.Member("name", "online/adaptation");
  w.Member("stale_median_qerror", stale_median);
  w.Member("adapted_median_qerror", adapted_median);
  w.Member("published_generation", static_cast<int64_t>(snap->generation));
  w.Member("speedup_vs_ref", improvement);
  w.EndObject();
  // Informational: what one adaptation costs end to end.
  w.BeginObject();
  w.Member("name", "online/adaptation_latency");
  w.Member("ns_per_op", adapt_seconds * 1e9);
  w.Member("seconds", adapt_seconds);
  w.EndObject();
  w.EndArray();
  w.EndObject();

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s\n", opt.out.c_str());

  // Non-zero exit when the loop failed to publish or to improve: the bench
  // doubles as a smoke test in the nightly job.
  return (result.outcome == online::AdaptOutcome::kPublished && improvement > 1.0)
             ? 0
             : 1;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
