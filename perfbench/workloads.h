// The four workloads of the end-to-end benchmark. Each builds its serving
// stack (timed as set-up), replays a seeded open-loop trace, checks every
// answer, and fills the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). See README.md for why each workload exists.
#pragma once

#include <string>
#include <vector>

#include "harness.h"
#include "serve/service.h"

namespace perfbench {

struct RunContext {
  explicit RunContext(const Options& o) : opt(o), tracer(o.trace) {}
  Options opt;
  OutputChecks checks;
  Validity validity;
  Tracer tracer;
  MetricSet metrics;
  /// Spans of the traced phase, written out by the driver.
  std::vector<Span> spans;
};

void RunReadWorkload(bool hot, RunContext* ctx);
void RunPlanJoin(RunContext* ctx);
void RunLearnChurn(RunContext* ctx);

// ---- Shared pieces of the workload drivers ----------------------------------

/// Median of the set-up times of repeated set-ups (setup_s).
double Median(std::vector<double> xs);

/// Number of set-ups timed per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

/// Prints each timed set-up and the median of set-up and training times.
void PrintSetup(const char* workload, const std::vector<double>& setup_s,
                const std::vector<double>& train_s);

/// Per-phase split of --seconds: the nominal phase gets this share and the
/// rate ladder the rest. The traced run splits its time between an untraced
/// and a traced nominal phase instead.
inline constexpr double kNominalShare = 0.8;

/// Requests per window of the nominal phase; p50_us and p99_us are medians
/// of the per-window percentiles (each window has 10 requests beyond p99).
inline constexpr size_t kWindowRequests = 1000;

/// Sets the end-to-end latency and validity metrics of a nominal phase:
/// p50_us, p99_us, and the generator-lateness bound.
void ReportNominalLatency(const std::vector<double>& latencies_us,
                          const std::vector<double>& gen_late_us,
                          RunContext* ctx);

/// Notes a rate-ladder condition on stderr. max_qps is not gated, so a
/// censored or failing ladder does not invalidate the run.
void WarnLadder(const char* what);

/// Sets qerr_p50 / qerr_p99 from q-errors computed with workload::QError.
void ReportQError(const std::vector<double>& qerrors, RunContext* ctx);

/// Sets model_bytes, rss_mb and ok_frac.
void ReportFootprint(double model_bytes, RunContext* ctx);

/// Sets the serve.* per-layer metrics from service counters taken before and
/// after the traced phase, plus the self times of the span budget.
void ReportServeLayer(const uae::serve::EstimationService& service,
                      const uae::serve::ServiceStats& before,
                      const uae::serve::ServiceStats& after,
                      uint64_t cache_evictions, const Budget& budget,
                      RunContext* ctx);

/// Sets bench.* per-layer metrics of a traced run.
void ReportTraceValidity(double untraced_p50_us, double traced_p50_us,
                         const std::vector<double>& gen_late_us,
                         size_t requests, const Budget& budget,
                         RunContext* ctx);

}  // namespace perfbench
