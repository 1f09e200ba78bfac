// Shared machinery of the end-to-end benchmark: open-loop replay, output
// checks, the outside-in span tracer, metric emission and run validity.
//
// Everything here sits OUTSIDE the library: the tracer wraps calls into the
// public layer boundaries (core::ServableModel decorators, the optimizer's
// entry points) and never reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/servable.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/join_workload.h"
#include "workload/query.h"

namespace perfbench {

namespace core = uae::core;

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double MicrosBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and short phases: every workload finishes in seconds. Used by
  /// smoke_test.py; never for measurements.
  bool smoke = false;
  /// Where the traced run writes its span file.
  std::string span_dir = ".bench_build";
};

// ---- Metrics ---------------------------------------------------------------

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// The metrics object of the result line, in insertion order.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- Output checks ---------------------------------------------------------

/// The models sum float32 probabilities into each column's mass, so a mass
/// over a whole domain is 1 only up to float32 rounding, and a query that
/// matches every row can come out a few float32 epsilons above its bound
/// (20000.00057 of 20000 rows). An answer above its bound by at most this
/// share of it is counted and reported as rounding, not failed; anything
/// further above fails. 64 epsilons is under a fifth of a row at 20000 rows.
inline constexpr double kRoundingSlack = 64.0 * 1.1920928955078125e-7;

/// Counts attempted operations and those that failed: exceptions, refused
/// submits, and answers outside their bounds or differing from a direct
/// re-estimate. Failures are counted, never filtered out of the metrics.
class OutputChecks {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what);
  /// Finite and within [0, upper], up to kRoundingSlack above `upper`.
  /// Returns whether it passed.
  bool CheckRange(double card, double upper, const char* what);
  /// `served` must equal `direct` bit for bit.
  bool CheckBitwise(double served, double direct, const char* what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t range_checked() const { return range_checked_.load(); }
  uint64_t bitwise_checked() const { return bitwise_checked_.load(); }
  /// Answers above their bound by float32 rounding only (passed).
  uint64_t rounded_over() const;
  /// Largest (answer - bound) / bound among them.
  double max_rounding_excess() const;
  std::vector<std::string> examples() const;
  std::vector<std::string> rounding_examples() const;

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> range_checked_{0};
  std::atomic<uint64_t> bitwise_checked_{0};
  mutable std::mutex mu_;
  std::vector<std::string> examples_;
  uint64_t rounded_over_ = 0;
  double max_rounding_excess_ = 0.0;
  std::vector<std::string> rounding_examples_;
};

/// Quantile over the finite values only (NaN breaks std::sort's ordering);
/// non-finite answers are already counted as failures by OutputChecks.
double FiniteQuantile(std::vector<double> xs, double q);

// ---- Tracing ----------------------------------------------------------------

/// One timed interval at a layer boundary. `request` is set on client-side
/// spans (request, submit, prewarm, dp); model-side spans carry the
/// fingerprints of the queries they evaluated in `keys` and are matched to
/// requests afterwards.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string layer;
  TimePoint start{};
  TimePoint end{};
  uint64_t request = 0;
  std::vector<uint64_t> keys;
};

/// In-memory span store; spans are written out when the run ends. A traced
/// run builds its stack with decorators (`enabled`), but spans are recorded
/// only while `recording` is on: during the traced phase.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  void SetRecording(bool on) { recording_.store(on && enabled_); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  std::vector<Span> Take();

  /// Innermost open model-side span of the calling thread (0 if none).
  static uint64_t Current();
  static void SetCurrent(uint64_t id);

 private:
  const bool enabled_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A ServableModel decorator that records one span per estimate call. Placed
/// between the service and the router, between the router and its sharded
/// primary, and around each per-shard model (through the ShardedServable
/// factory), or between the service and a join model.
class TracedServable : public core::ServableModel {
 public:
  TracedServable(std::shared_ptr<core::ServableModel> inner, std::string layer,
                 Tracer* tracer);

  double EstimateCard(const uae::workload::Query& query) const override;
  std::vector<double> EstimateCards(
      std::span<const uae::workload::Query> queries) const override;
  bool SupportsJoinQueries() const override {
    return inner_->SupportsJoinQueries();
  }
  double EstimateJoinCard(const uae::workload::JoinQuery& query) const override;
  std::vector<double> EstimateJoinCards(
      std::span<const uae::workload::JoinQuery> queries) const override;
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  uint64_t seed() const override { return inner_->seed(); }
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  size_t FineTune(const uae::workload::Workload& workload,
                  const core::FineTuneSpec& spec) override {
    return inner_->FineTune(workload, spec);
  }

 private:
  struct Scope;
  std::shared_ptr<core::ServableModel> inner_;
  std::string layer_;
  Tracer* tracer_;
};

// ---- Open-loop replay ---------------------------------------------------------

/// Poisson arrival offsets (seconds from phase start) at `rate` per second.
std::vector<double> PoissonOffsets(double rate, double seconds, uae::util::Rng* rng);

/// What the replay saw for one single-table request.
struct RequestRecord {
  size_t query = 0;       ///< Index into the workload's query pool.
  TimePoint due{};
  TimePoint submit{};
  TimePoint submitted{};
  TimePoint answer{};
  double card = 0.0;
  uint64_t generation = 0;
  bool cache_hit = false;
  bool failed = false;    ///< Exception or refused submit.
  double latency_us() const { return MicrosBetween(due, answer); }
};

/// Replays a schedule of single-table requests through a service: this
/// thread submits each request at its due time, one completion thread
/// collects the answers. Cache hits and inline answers resolve at submit.
/// `tick` runs on the generator thread between submits (ingest appends,
/// controller polls); `on_answer` runs on the completion side for each
/// answered request.
class Replayer {
 public:
  Replayer(uae::serve::EstimationService* service,
           const std::vector<uae::workload::Query>* pool, Tracer* tracer);

  struct Phase {
    std::vector<RequestRecord> records;
    std::vector<double> gen_late_us;
    TimePoint start{};
    TimePoint end{};
  };

  Phase Run(const std::vector<double>& offsets,
            const std::vector<size_t>& query_index,
            const std::function<void(TimePoint now)>& tick,
            const std::function<void(size_t i, const RequestRecord&)>& on_answer);

 private:
  uae::serve::EstimationService* service_;
  const std::vector<uae::workload::Query>* pool_;
  Tracer* tracer_;
};

/// Latency summary of a phase. Failed requests are excluded from the
/// quantiles (they are counted by OutputChecks).
struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  size_t beyond_p99 = 0;
};
LatencySummary SummarizeLatency(const std::vector<double>& latencies_us);

/// One rung of a rate ladder: passes when, in the median fifth of the step,
/// at least 99% of the requests were answered within the limit by a
/// non-degraded backend, and the backlog did not grow (the median latency
/// of the last fifth stays within twice that of the first fifth plus a
/// tenth of the limit).
struct LadderStep {
  double rate = 0.0;
  size_t requests = 0;
  size_t within = 0;
  size_t degraded = 0;
  bool pass = false;
};
LadderStep JudgeStep(double rate, const std::vector<double>& latencies_us,
                     const std::vector<bool>& failed, size_t degraded,
                     double limit_us);

/// Rates nominal * 1.06^k from `first_factor` up to `last_factor` (6% apart).
std::vector<double> LadderRates(double nominal, double first_factor,
                                double last_factor);

/// Highest passing rung of `rates`, found by bisection over the rungs (a
/// rung above a failing one is never tried). `run_step(k)` replays rung k.
/// `censored` is set when the top rung passes.
struct LadderResult {
  double max_qps = 0.0;
  bool censored = false;
};
LadderResult SearchLadder(const std::vector<double>& rates,
                          const std::function<LadderStep(size_t)>& run_step);

/// Rungs a SearchLadder over `rungs` rates replays at most.
size_t LadderProbes(size_t rungs);

// ---- Environment and validity ------------------------------------------------

struct RunEnv {
  unsigned nproc = 0;
  std::string march;
  bool ndebug = false;
  bool optimized = false;
  std::string sanitizer;
  std::string source_digest;
  uint64_t seed = 0;
};
RunEnv DetectEnv(uint64_t seed);
std::string DescribeEnv(const RunEnv& env);

double PeakRssMiB();

/// Records why a run's numbers must not be reported; the benchmark exits
/// non-zero without a result line when any reason is present.
class Validity {
 public:
  void Invalidate(const std::string& reason);
  bool valid() const { return reasons_.empty(); }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::vector<std::string> reasons_;
};

/// Generator lateness bound (µs) on the p99 of the nominal phase.
inline constexpr double kMaxGenLateP99Us = 50000.0;

// ---- Budget ------------------------------------------------------------------

/// Per-layer self time per request and its share of p50_us, computed from
/// the spans of a traced phase.
struct Budget {
  std::vector<std::pair<std::string, double>> self_us;  ///< Mean per request.
  double mean_request_us = 0.0;
  double unattributed_us = 0.0;
  size_t requests = 0;
};

/// Builds the budget: model-side spans are matched to the requests pending
/// during them by fingerprint; each layer's self time is its span minus the
/// part its child spans cover. `client_layers` are the client-side layers
/// whose spans carry request ids (submit, prewarm, dp); `residual_layer`
/// receives each request's time between its first client-side span start
/// and its answer that no other span covers.
Budget ComputeBudget(const std::vector<Span>& spans,
                     const std::vector<std::string>& model_layers,
                     const std::string& residual_layer);

void PrintBudget(const std::string& workload, const Budget& budget,
                 double p50_us);
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
