// Router degradation benchmark: a latency SLO, a load spike that the deep
// model cannot absorb, and the question the hybrid router exists to answer —
// does serving hold the tail under the spike, and what accuracy does it give
// up to do so?
//
// Protocol (single serving thread, real clock):
//   1. Measure the deep model's single-request median latency; the SLO is
//      `slo-mult` times that, so the bar scales with the host's speed and the
//      committed baseline transfers across machines.
//   2. Feed the router labeled feedback (truths from the exact oracle) so
//      per-class routing tables are warm, then replay the SAME spike stream —
//      arrivals paced at `overload` times the model's service rate — through
//      (a) the deep model alone and (b) the router with its load probe wired
//      to the replay queue's backlog.
//   3. Per-request latency = completion - arrival. The UAE-only run must MISS
//      the SLO at p99 (the spike is genuinely unabsorbable) and the router
//      must HOLD it (degrading to the histogram floor while breached); the
//      router's median q-error on the stream must stay within `qerr-give-up`
//      of UAE-only's. All three are self-checks: the bench exits non-zero if
//      the scenario does not demonstrate them.
//
// Emits BENCH_router.json. The gated entry is `router/p99_degradation`:
// speedup_vs_ref = slo_us / router_p99_us (>= 1 means the tail held with
// margin), a machine-normalized ratio compare_bench.py can gate with the
// usual 25% regression rule plus an absolute floor. The UAE-only tail and
// the q-error ratio ride along ungated for the record.
//
// Usage:
//   bench_router_degradation [--out=BENCH_router.json] [--rows=4000]
//                            [--ps-samples=64] [--distinct=200] [--burst=1200]
//                            [--slo-mult=8] [--overload=4] [--qerr-give-up=2]
//                            [--reps=2]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "estimators/histogram.h"
#include "estimators/oracle.h"
#include "online/feedback.h"
#include "router/router.h"
#include "util/json.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_router.json";
  int rows = 4000;
  int ps_samples = 64;
  int distinct = 200;     ///< Distinct queries in the request pool.
  int burst = 1200;       ///< Requests in the spike stream.
  double slo_mult = 8.0;  ///< SLO = slo_mult x UAE median single latency.
  double overload = 4.0;  ///< Arrival rate as a multiple of UAE service rate.
  double qerr_give_up = 2.0;  ///< Router median q-error bound vs UAE-only.
  int reps = 2;           ///< Timed spike replays; best (lowest p99) kept.
};

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpikeOutcome {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double median_qerr = 0.0;
};

/// Replays the spike stream through `serve`, pacing admissions at the given
/// arrival offsets. The stream is served in arrival order on one thread (the
/// 1-core serving deployment): when service falls behind, later requests
/// queue implicitly and `backlog_wait_us`/`backlog_depth` expose the head
/// request's age and the queue depth — exactly what a router::LoadProbe
/// reads in a served deployment.
template <typename ServeFn>
SpikeOutcome ReplaySpike(const std::vector<const workload::Query*>& stream,
                         const std::vector<uint64_t>& arrival_us,
                         const std::vector<double>& truths,
                         std::atomic<uint64_t>* backlog_wait_us,
                         std::atomic<size_t>* backlog_depth,
                         const ServeFn& serve) {
  const uint64_t start = NowMicros();
  std::vector<double> latencies(stream.size());
  std::vector<double> qerrs(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    uint64_t now = NowMicros() - start;
    if (now < arrival_us[i]) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(arrival_us[i] - now));
      now = NowMicros() - start;
    }
    if (backlog_wait_us != nullptr) {
      backlog_wait_us->store(now - arrival_us[i], std::memory_order_relaxed);
      // Requests that have arrived but not been served yet queue behind i.
      const auto end = std::upper_bound(arrival_us.begin() + static_cast<ptrdiff_t>(i),
                                        arrival_us.end(), now);
      backlog_depth->store(
          static_cast<size_t>(end - (arrival_us.begin() + static_cast<ptrdiff_t>(i))),
          std::memory_order_relaxed);
    }
    const double est = serve(*stream[i]);
    latencies[i] = static_cast<double>((NowMicros() - start) - arrival_us[i]);
    qerrs[i] = workload::QError(est, truths[i]);
  }
  SpikeOutcome out;
  out.p50_us = util::Quantile(latencies, 0.5);
  out.p99_us = util::Quantile(latencies, 0.99);
  out.median_qerr = util::Quantile(qerrs, 0.5);
  return out;
}

struct Result {
  std::string name;
  double ns_per_op = 0.0;
  double qps = 0.0;
  double speedup_vs_ref = 0.0;  ///< 0 when the entry is ungated.
};

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = std::max<int>(500, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.ps_samples =
      std::max<int>(8, static_cast<int>(flags.GetInt("ps-samples", opt.ps_samples)));
  opt.distinct =
      std::max<int>(8, static_cast<int>(flags.GetInt("distinct", opt.distinct)));
  opt.burst = std::max<int>(100, static_cast<int>(flags.GetInt("burst", opt.burst)));
  opt.slo_mult = std::max(2.0, flags.GetDouble("slo-mult", opt.slo_mult));
  opt.overload = std::max(1.5, flags.GetDouble("overload", opt.overload));
  opt.qerr_give_up = std::max(1.0, flags.GetDouble("qerr-give-up", opt.qerr_give_up));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));

  data::Table table = data::TinyCorrelated(static_cast<size_t>(opt.rows), 4);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = opt.ps_samples;
  config.seed = 3;
  auto model = std::make_shared<core::Uae>(table, config);
  model->TrainDataEpochs(1);

  auto oracle = std::make_shared<estimators::OracleEstimator>(table);
  auto floor = std::make_shared<estimators::HistogramAviEstimator>(table, 16);
  std::vector<int32_t> domains;
  for (int c = 0; c < table.num_cols(); ++c) {
    domains.push_back(table.column(c).domain());
  }

  // Distinct pool + Zipf-skewed spike stream with exact truths.
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, 37);
  std::vector<workload::Query> pool;
  std::vector<double> pool_truth;
  for (int i = 0; i < opt.distinct; ++i) {
    pool.push_back(gen.Generate());
    pool_truth.push_back(oracle->EstimateCard(pool.back()));
  }
  util::Rng rng(1000);
  std::vector<const workload::Query*> stream;
  std::vector<double> truths;
  for (int i = 0; i < opt.burst; ++i) {
    const size_t pick =
        static_cast<size_t>(rng.Zipf(static_cast<int64_t>(pool.size()), 1.0));
    stream.push_back(&pool[pick]);
    truths.push_back(pool_truth[pick]);
  }

  // (1) Single-request service time -> SLO, both in host-relative units.
  std::vector<double> singles;
  for (int i = 0; i < 100; ++i) {
    const uint64_t t0 = NowMicros();
    (void)model->EstimateCard(pool[static_cast<size_t>(i) % pool.size()]);
    singles.push_back(static_cast<double>(NowMicros() - t0));
  }
  const double uae_med_us = std::max(1.0, util::Quantile(singles, 0.5));
  const double slo_us = opt.slo_mult * uae_med_us;
  // Arrivals paced `overload`x faster than the model can serve.
  const double interarrival_us = uae_med_us / opt.overload;
  std::vector<uint64_t> arrival_us(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    arrival_us[i] = static_cast<uint64_t>(static_cast<double>(i) * interarrival_us);
  }
  std::printf(
      "uae median %.0f us; SLO %.0f us; spike %d reqs at %.0f us spacing\n",
      uae_med_us, slo_us, opt.burst, interarrival_us);

  // (2) The router: degradation trigger at a quarter of the SLO so the
  // breach engages (and the backlog floors out) well before the tail is
  // lost; recovery is deliberately slow so the spike cannot flap.
  router::RouterConfig rc;
  rc.latency_slo_us = static_cast<uint64_t>(slo_us / 4.0);
  rc.queue_depth_limit = 0;
  rc.recover_after = 64;
  auto router = std::make_shared<router::HybridRouter>(model, floor, domains, rc);
  std::atomic<uint64_t> backlog_wait_us{0};
  std::atomic<size_t> backlog_depth{0};
  router->SetLoadProbe([&backlog_wait_us, &backlog_depth] {
    return router::RouterLoad{backlog_depth.load(std::memory_order_relaxed),
                              backlog_wait_us.load(std::memory_order_relaxed)};
  });
  // Warm routing tables from labeled feedback (truths the plan executor
  // would report in production): hot classes earn the kNN fast path.
  for (int round = 0; round < 3; ++round) {
    std::vector<online::FeedbackEntry> feedback;
    for (size_t i = 0; i < pool.size(); ++i) {
      online::FeedbackEntry e;
      e.query = pool[i];
      e.true_card = pool_truth[i];
      e.estimated_card = pool_truth[i];
      e.generation = 1;
      feedback.push_back(std::move(e));
    }
    (void)router->ObserveFeedback(feedback);
  }

  // (3) Replay: best-of-reps for both modes (first rep absorbs cold caches).
  SpikeOutcome uae_best, router_best;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const SpikeOutcome u =
        ReplaySpike(stream, arrival_us, truths, nullptr, nullptr,
                    [&](const workload::Query& q) { return model->EstimateCard(q); });
    if (rep == 0 || u.p99_us < uae_best.p99_us) uae_best = u;

    backlog_wait_us.store(0);
    backlog_depth.store(0);
    const SpikeOutcome r = ReplaySpike(
        stream, arrival_us, truths, &backlog_wait_us, &backlog_depth,
        [&](const workload::Query& q) { return router->EstimateCard(q); });
    if (rep == 0 || r.p99_us < router_best.p99_us) router_best = r;
    // Let the degraded state drain between reps: healthy probes + requests.
    backlog_wait_us.store(0);
    backlog_depth.store(0);
    for (int i = 0; i < 80; ++i) (void)router->EstimateCard(pool[0]);
  }

  const router::RouterStatsSnapshot stats = router->RouterStats();
  std::printf("uae-only : p50 %8.0f us  p99 %8.0f us  med-qerr %.3f\n",
              uae_best.p50_us, uae_best.p99_us, uae_best.median_qerr);
  std::printf("router   : p50 %8.0f us  p99 %8.0f us  med-qerr %.3f\n",
              router_best.p50_us, router_best.p99_us, router_best.median_qerr);
  std::printf(
      "router served: primary %llu, knn %llu, floor %llu; degraded spans %llu; "
      "knn classes %zu\n",
      static_cast<unsigned long long>(
          stats.backends[static_cast<size_t>(router::Backend::kPrimary)].requests),
      static_cast<unsigned long long>(
          stats.backends[static_cast<size_t>(router::Backend::kKnn)].requests),
      static_cast<unsigned long long>(
          stats.backends[static_cast<size_t>(router::Backend::kFloor)].requests),
      static_cast<unsigned long long>(stats.degrade_transitions),
      stats.knn_classes);

  // Self-checks: the scenario must actually demonstrate degradation.
  int failures = 0;
  if (uae_best.p99_us <= slo_us) {
    std::fprintf(stderr,
                 "FAIL: UAE-only held the SLO (p99 %.0f <= %.0f us) — spike "
                 "too gentle, raise --overload/--burst\n",
                 uae_best.p99_us, slo_us);
    ++failures;
  }
  if (router_best.p99_us > slo_us) {
    std::fprintf(stderr, "FAIL: router missed the SLO (p99 %.0f > %.0f us)\n",
                 router_best.p99_us, slo_us);
    ++failures;
  }
  const double qerr_ratio =
      router_best.median_qerr / std::max(1.0, uae_best.median_qerr);
  if (qerr_ratio > opt.qerr_give_up) {
    std::fprintf(stderr,
                 "FAIL: router gave up too much accuracy (median q-error "
                 "%.3f vs %.3f, ratio %.2f > %.2f)\n",
                 router_best.median_qerr, uae_best.median_qerr, qerr_ratio,
                 opt.qerr_give_up);
    ++failures;
  }

  std::vector<Result> results;
  results.push_back({"router/uae_p99_spike", uae_best.p99_us * 1000.0,
                     1e6 / std::max(1.0, uae_best.p99_us), 0.0});
  results.push_back({"router/p99_degradation", router_best.p99_us * 1000.0,
                     1e6 / std::max(1.0, router_best.p99_us),
                     slo_us / std::max(1.0, router_best.p99_us)});
  results.push_back({"router/qerr_ratio", qerr_ratio * 1000.0, 0.0, 0.0});

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("rows", opt.rows);
  w.Member("ps_samples", opt.ps_samples);
  w.Member("distinct", opt.distinct);
  w.Member("burst", opt.burst);
  w.Member("slo_mult", opt.slo_mult);
  w.Member("overload", opt.overload);
  w.Member("qerr_give_up", opt.qerr_give_up);
  w.Member("reps", opt.reps);
  w.Member("uae_median_us", uae_med_us);
  w.Member("slo_us", slo_us);
#ifdef NDEBUG
  w.Member("optimized_build", true);
#else
  w.Member("optimized_build", false);
#endif
  w.EndObject();
  w.Key("benchmarks").BeginArray();
  for (const Result& r : results) {
    w.BeginObject();
    w.Member("name", r.name);
    w.Member("ns_per_op", r.ns_per_op);
    if (r.qps > 0) w.Member("qps", r.qps);
    if (r.speedup_vs_ref > 0) w.Member("speedup_vs_ref", r.speedup_vs_ref);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s (%zu benchmarks)%s\n", opt.out.c_str(), results.size(),
              failures > 0 ? " with FAILURES" : "");
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
