#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "util/json.h"

#ifndef PERFBENCH_MARCH
#define PERFBENCH_MARCH "unknown"
#endif

namespace perfbench {

namespace uw = uae::workload;

// ---- Metrics ---------------------------------------------------------------

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return std::nan("");
}

std::string MetricSet::ToJson() const {
  uae::util::JsonWriter w;
  w.BeginObject();
  for (const Entry& e : entries_) {
    w.Key(e.name).BeginObject();
    w.Member("value", e.value);
    w.Member("unit", e.unit);
    w.EndObject();
  }
  w.EndObject();
  return w.Finish();
}

// ---- Output checks ---------------------------------------------------------

void OutputChecks::Fail(const std::string& what) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (examples_.size() < 8) examples_.push_back(what);
}

bool OutputChecks::CheckRange(double card, double upper, const char* what) {
  range_checked_.fetch_add(1);
  if (std::isfinite(card) && card >= 0.0 && card <= upper) return true;
  std::ostringstream os;
  os.precision(17);
  if (std::isfinite(card) && card > upper &&
      card <= upper * (1.0 + kRoundingSlack)) {
    os << what << ": answer " << card << " above bound " << upper;
    std::lock_guard<std::mutex> lock(mu_);
    ++rounded_over_;
    max_rounding_excess_ = std::max(max_rounding_excess_, (card - upper) / upper);
    if (rounding_examples_.size() < 3) rounding_examples_.push_back(os.str());
    return true;
  }
  os << what << ": answer " << card << " outside [0, " << upper << "]";
  Fail(os.str());
  return false;
}

uint64_t OutputChecks::rounded_over() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounded_over_;
}

double OutputChecks::max_rounding_excess() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_rounding_excess_;
}

std::vector<std::string> OutputChecks::rounding_examples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounding_examples_;
}

bool OutputChecks::CheckBitwise(double served, double direct, const char* what) {
  bitwise_checked_.fetch_add(1);
  if (served == direct || (std::isnan(served) && std::isnan(direct))) {
    return true;
  }
  std::ostringstream os;
  os.precision(17);
  os << what << ": served " << served << " != direct " << direct;
  Fail(os.str());
  return false;
}

std::vector<std::string> OutputChecks::examples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return examples_;
}

double FiniteQuantile(std::vector<double> xs, double q) {
  xs.erase(std::remove_if(xs.begin(), xs.end(),
                          [](double v) { return !std::isfinite(v); }),
           xs.end());
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

// ---- Tracing ----------------------------------------------------------------

namespace {
thread_local uint64_t tls_current_span = 0;
}  // namespace

uint64_t Tracer::Current() { return tls_current_span; }
void Tracer::SetCurrent(uint64_t id) { tls_current_span = id; }

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

/// Opens a model-side span on construction and records it on Close(); the
/// span's keys are computed after its end stamp so hashing is not timed.
struct TracedServable::Scope {
  Scope(Tracer* t, const std::string& layer)
      : tracer(t->recording() ? t : nullptr) {
    if (tracer == nullptr) return;
    span.id = tracer->NextId();
    span.parent = Tracer::Current();
    span.layer = layer;
    Tracer::SetCurrent(span.id);
    span.start = Clock::now();
  }
  bool active() const { return tracer != nullptr; }
  void Close(std::vector<uint64_t> keys) {
    span.end = Clock::now();
    Tracer::SetCurrent(span.parent);
    span.keys = std::move(keys);
    tracer->Record(std::move(span));
  }
  Tracer* tracer;
  Span span;
};

TracedServable::TracedServable(std::shared_ptr<core::ServableModel> inner,
                               std::string layer, Tracer* tracer)
    : inner_(std::move(inner)), layer_(std::move(layer)), tracer_(tracer) {}

double TracedServable::EstimateCard(const uw::Query& query) const {
  Scope scope(tracer_, layer_);
  const double card = inner_->EstimateCard(query);
  if (scope.active()) scope.Close({query.Fingerprint()});
  return card;
}

std::vector<double> TracedServable::EstimateCards(
    std::span<const uw::Query> queries) const {
  Scope scope(tracer_, layer_);
  std::vector<double> cards = inner_->EstimateCards(queries);
  if (!scope.active()) return cards;
  std::vector<uint64_t> keys;
  keys.reserve(queries.size());
  for (const uw::Query& q : queries) keys.push_back(q.Fingerprint());
  scope.Close(std::move(keys));
  return cards;
}

double TracedServable::EstimateJoinCard(const uw::JoinQuery& query) const {
  Scope scope(tracer_, layer_);
  const double card = inner_->EstimateJoinCard(query);
  if (scope.active()) scope.Close({uw::JoinFingerprint(query)});
  return card;
}

std::vector<double> TracedServable::EstimateJoinCards(
    std::span<const uw::JoinQuery> queries) const {
  Scope scope(tracer_, layer_);
  std::vector<double> cards = inner_->EstimateJoinCards(queries);
  if (!scope.active()) return cards;
  std::vector<uint64_t> keys;
  keys.reserve(queries.size());
  for (const uw::JoinQuery& q : queries) keys.push_back(uw::JoinFingerprint(q));
  scope.Close(std::move(keys));
  return cards;
}

std::shared_ptr<core::ServableModel> TracedServable::CloneServable() const {
  return std::make_shared<TracedServable>(inner_->CloneServable(), layer_,
                                          tracer_);
}

// ---- Open-loop replay ---------------------------------------------------------

std::vector<double> PoissonOffsets(double rate, double seconds,
                                   uae::util::Rng* rng) {
  std::vector<double> offsets;
  double t = 0.0;
  for (;;) {
    t += -std::log(std::max(1e-12, 1.0 - rng->Uniform())) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  if (offsets.empty()) offsets.push_back(0.0);
  return offsets;
}

Replayer::Replayer(uae::serve::EstimationService* service,
                   const std::vector<uw::Query>* pool, Tracer* tracer)
    : service_(service), pool_(pool), tracer_(tracer) {}

Replayer::Phase Replayer::Run(
    const std::vector<double>& offsets, const std::vector<size_t>& query_index,
    const std::function<void(TimePoint)>& tick,
    const std::function<void(size_t, const RequestRecord&)>& on_answer) {
  Phase phase;
  const size_t n = offsets.size();
  phase.records.resize(n);
  phase.gen_late_us.reserve(n);

  struct Pending {
    size_t i;
    std::future<uae::serve::ServeResult> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool closed = false;

  const bool tracing = tracer_ != nullptr && tracer_->recording();
  auto finish = [&](size_t i, RequestRecord& rec) {
    if (tracing) {
      Span request;
      request.id = tracer_->NextId();
      request.layer = "request";
      request.start = rec.due;
      request.end = rec.answer;
      request.request = i + 1;
      request.keys = {(*pool_)[rec.query].Fingerprint()};
      Span serve;
      serve.id = tracer_->NextId();
      serve.parent = request.id;
      serve.layer = "serve";
      serve.start = rec.submit;
      serve.end = rec.answer;
      serve.request = i + 1;
      tracer_->Record(std::move(request));
      tracer_->Record(std::move(serve));
    }
    if (on_answer) on_answer(i, rec);
  };

  std::thread completion([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      RequestRecord& rec = phase.records[p.i];
      try {
        uae::serve::ServeResult r = p.future.get();
        rec.answer = Clock::now();
        rec.card = r.card;
        rec.generation = r.generation;
        rec.cache_hit = r.cache_hit;
      } catch (...) {
        rec.answer = Clock::now();
        rec.failed = true;
      }
      finish(p.i, rec);
    }
  });

  const TimePoint start = Clock::now() + std::chrono::milliseconds(2);
  phase.start = start;
  for (size_t i = 0; i < n; ++i) {
    const TimePoint due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[i]));
    if (tick) tick(Clock::now());
    std::this_thread::sleep_until(due);
    RequestRecord& rec = phase.records[i];
    rec.query = query_index[i];
    rec.due = due;
    rec.submit = Clock::now();
    phase.gen_late_us.push_back(MicrosBetween(due, rec.submit));
    std::future<uae::serve::ServeResult> future;
    bool refused = false;
    try {
      future = service_->EstimateAsync((*pool_)[rec.query]);
    } catch (...) {
      refused = true;
    }
    rec.submitted = Clock::now();
    if (refused) {
      rec.answer = rec.submitted;
      rec.failed = true;
      finish(i, rec);
      continue;
    }
    if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      try {
        uae::serve::ServeResult r = future.get();
        rec.answer = Clock::now();
        rec.card = r.card;
        rec.generation = r.generation;
        rec.cache_hit = r.cache_hit;
      } catch (...) {
        rec.answer = Clock::now();
        rec.failed = true;
      }
      finish(i, rec);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({i, std::move(future)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  completion.join();
  phase.end = Clock::now();
  return phase;
}

LatencySummary SummarizeLatency(const std::vector<double>& latencies_us) {
  LatencySummary s;
  std::vector<double> xs;
  xs.reserve(latencies_us.size());
  for (double v : latencies_us) {
    if (std::isfinite(v)) xs.push_back(v);
  }
  if (xs.empty()) return s;
  s.p50_us = FiniteQuantile(xs, 0.5);
  s.p99_us = FiniteQuantile(xs, 0.99);
  s.beyond_p99 = static_cast<size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double v) { return v > s.p99_us; }));
  return s;
}

LadderStep JudgeStep(double rate, const std::vector<double>& latencies_us,
                     const std::vector<bool>& failed, size_t degraded,
                     double limit_us) {
  LadderStep step;
  step.rate = rate;
  step.requests = latencies_us.size();
  step.degraded = degraded;
  for (size_t i = 0; i < latencies_us.size(); ++i) {
    if (!failed[i] && latencies_us[i] <= limit_us) ++step.within;
  }
  if (step.requests == 0) return step;
  // The 99% test runs on each fifth of the step and the median fifth
  // decides, so one host-side stall does not fail a rung. Degraded answers
  // count as misses, spread evenly over the fifths.
  const size_t fifths = 5;
  const double degraded_share =
      static_cast<double>(degraded) / static_cast<double>(step.requests);
  std::vector<double> shares;
  for (size_t f = 0; f < fifths; ++f) {
    const size_t lo = step.requests * f / fifths;
    const size_t hi = step.requests * (f + 1) / fifths;
    size_t in = 0;
    for (size_t i = lo; i < hi; ++i) {
      if (!failed[i] && latencies_us[i] <= limit_us) ++in;
    }
    shares.push_back(hi > lo ? static_cast<double>(in) / static_cast<double>(hi - lo) -
                                   degraded_share
                             : 1.0);
  }
  const bool enough = FiniteQuantile(shares, 0.5) >= 0.99;
  // A growing backlog shows as latency rising through the step.
  const size_t fifth = std::max<size_t>(1, latencies_us.size() / 5);
  const std::vector<double> first(latencies_us.begin(),
                                  latencies_us.begin() + static_cast<ptrdiff_t>(fifth));
  const std::vector<double> last(latencies_us.end() - static_cast<ptrdiff_t>(fifth),
                                 latencies_us.end());
  const bool steady =
      FiniteQuantile(last, 0.5) <= 2.0 * FiniteQuantile(first, 0.5) + limit_us / 10.0;
  step.pass = enough && steady;
  return step;
}

std::vector<double> LadderRates(double nominal, double first_factor,
                                double last_factor) {
  std::vector<double> rates;
  for (double f = first_factor; f <= last_factor * 1.0001; f *= 1.06) {
    rates.push_back(nominal * f);
  }
  return rates;
}

LadderResult SearchLadder(const std::vector<double>& rates,
                          const std::function<LadderStep(size_t)>& run_step) {
  // Invariant: rungs <= lo passed (lo = -1: none known), rungs >= hi failed.
  int64_t lo = -1;
  int64_t hi = static_cast<int64_t>(rates.size());
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (run_step(static_cast<size_t>(mid)).pass) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  LadderResult r;
  r.max_qps = lo >= 0 ? rates[static_cast<size_t>(lo)] : 0.0;
  r.censored = lo == static_cast<int64_t>(rates.size()) - 1;
  return r;
}

size_t LadderProbes(size_t rungs) {
  size_t probes = 0;
  for (size_t n = rungs + 1; n > 1; n = (n + 1) / 2) ++probes;
  return probes;
}

// ---- Environment and validity ------------------------------------------------

RunEnv DetectEnv(uint64_t seed) {
  RunEnv env;
  env.nproc = std::thread::hardware_concurrency();
  env.march = PERFBENCH_MARCH;
#ifdef NDEBUG
  env.ndebug = true;
#endif
#ifdef __OPTIMIZE__
  env.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__)
  env.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  env.sanitizer = "thread";
#else
  env.sanitizer = "none";
#endif
  // run.py hashes the library sources: the checkout has no git metadata.
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  env.source_digest = digest != nullptr ? digest : "unknown";
  env.seed = seed;
  return env;
}

std::string DescribeEnv(const RunEnv& env) {
  std::ostringstream os;
  os << "nproc=" << env.nproc << " march=" << env.march
     << " NDEBUG=" << (env.ndebug ? 1 : 0)
     << " optimized=" << (env.optimized ? 1 : 0)
     << " sanitizer=" << env.sanitizer << " source=" << env.source_digest
     << " seed=" << env.seed;
  return os.str();
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void Validity::Invalidate(const std::string& reason) {
  reasons_.push_back(reason);
}

// ---- Budget ------------------------------------------------------------------

namespace {

/// Longest a request can wait for a model span and still be matched to it.
constexpr std::chrono::seconds kMaxPending{2};

double Overlap(TimePoint a0, TimePoint a1, TimePoint b0, TimePoint b1) {
  const TimePoint lo = std::max(a0, b0);
  const TimePoint hi = std::min(a1, b1);
  return hi > lo ? MicrosBetween(lo, hi) : 0.0;
}

}  // namespace

Budget ComputeBudget(const std::vector<Span>& spans,
                     const std::vector<std::string>& model_layers,
                     const std::string& residual_layer) {
  Budget budget;
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  std::unordered_map<uint64_t, const Span*> requests;          // request id.
  std::unordered_map<uint64_t, std::vector<const Span*>> client;  // request id.
  // key -> request spans carrying it, sorted by start below.
  std::unordered_map<uint64_t, std::vector<const Span*>> by_key;
  std::vector<const Span*> tops;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.layer == "request") {
      requests[s.request] = &s;
      for (uint64_t k : s.keys) by_key[k].push_back(&s);
    } else if (s.request != 0) {
      client[s.request].push_back(&s);
    } else if (s.parent != 0 && by_id.count(s.parent)) {
      children[s.parent].push_back(&s);
    } else {
      tops.push_back(&s);
    }
  }
  if (requests.empty()) return budget;
  const auto by_start = [](const Span* a, const Span* b) { return a->start < b->start; };
  for (auto& [key, list] : by_key) std::sort(list.begin(), list.end(), by_start);

  // Per top-level model span: self time of each layer in its subtree.
  std::unordered_map<uint64_t, std::map<std::string, double>> tree_self;
  std::function<void(const Span*, std::map<std::string, double>*)> walk =
      [&](const Span* s, std::map<std::string, double>* acc) {
        double covered = 0.0;
        auto it = children.find(s->id);
        if (it != children.end()) {
          for (const Span* c : it->second) {
            covered += MicrosBetween(c->start, c->end);
            walk(c, acc);
          }
        }
        (*acc)[s->layer] += std::max(0.0, MicrosBetween(s->start, s->end) - covered);
      };
  // Requests each top span served (pending during it, sharing a key).
  std::unordered_map<uint64_t, std::vector<const Span*>> served;  // req -> tops.
  for (const Span* t : tops) {
    walk(t, &tree_self[t->id]);
    std::vector<uint64_t> matched;
    for (uint64_t k : t->keys) {
      auto it = by_key.find(k);
      if (it == by_key.end()) continue;
      // Requests pending during t started before it, and not longer ago
      // than kMaxPending (hot keys repeat thousands of times per phase).
      const std::vector<const Span*>& list = it->second;
      Span probe;
      probe.start = t->start;
      auto hi = std::upper_bound(list.begin(), list.end(), &probe, by_start);
      for (auto r = hi; r != list.begin();) {
        --r;
        if (t->start - (*r)->start > kMaxPending) break;
        if ((*r)->end >= t->end) matched.push_back((*r)->request);
      }
    }
    std::sort(matched.begin(), matched.end());
    matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
    for (uint64_t r : matched) served[r].push_back(t);
  }

  std::map<std::string, double> totals;
  for (const std::string& l : model_layers) totals[l] = 0.0;
  totals[residual_layer] = 0.0;
  double total_request = 0.0;
  double total_unattributed = 0.0;
  for (const auto& [r, req] : requests) {
    const double dur = MicrosBetween(req->start, req->end);
    total_request += dur;
    double attributed = 0.0;
    const std::vector<const Span*>& tops_r = served[r];
    for (const Span* t : tops_r) {
      for (const auto& [layer, us] : tree_self[t->id]) {
        totals[layer] += us;
        attributed += us;
      }
    }
    for (const Span* c : client[r]) {
      double covered = 0.0;
      for (const Span* t : tops_r) covered += Overlap(c->start, c->end, t->start, t->end);
      const double self = std::max(0.0, MicrosBetween(c->start, c->end) - covered);
      const std::string layer = c->layer == "serve" ? residual_layer : c->layer;
      totals[layer] += self;
      attributed += self;
    }
    total_unattributed += std::max(0.0, dur - attributed);
  }
  const double n = static_cast<double>(requests.size());
  budget.requests = requests.size();
  budget.mean_request_us = total_request / n;
  budget.unattributed_us = total_unattributed / n;
  for (const auto& [layer, us] : totals) budget.self_us.emplace_back(layer, us / n);
  return budget;
}

void PrintBudget(const std::string& workload, const Budget& budget,
                 double p50_us) {
  std::fprintf(stderr,
               "[budget] %s: %zu traced requests, mean %.1f us, p50 %.1f us\n",
               workload.c_str(), budget.requests, budget.mean_request_us, p50_us);
  std::fprintf(stderr, "[budget] %-12s %14s %12s %12s\n", "layer",
               "self us/req", "share mean", "share p50");
  auto row = [&](const std::string& name, double us) {
    std::fprintf(stderr, "[budget] %-12s %14.1f %11.1f%% %11.1f%%\n",
                 name.c_str(), us,
                 100.0 * us / std::max(1e-9, budget.mean_request_us),
                 100.0 * us / std::max(1e-9, p50_us));
  };
  for (const auto& [layer, us] : budget.self_us) row(layer, us);
  row("unattributed", budget.unattributed_us);
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  TimePoint origin = spans.empty() ? TimePoint{} : spans.front().start;
  for (const Span& s : spans) origin = std::min(origin, s.start);
  for (const Span& s : spans) {
    uae::util::JsonWriter w;
    w.BeginObject();
    w.Member("id", static_cast<int64_t>(s.id));
    w.Member("parent", static_cast<int64_t>(s.parent));
    w.Member("name", s.layer);
    w.Member("start_us", MicrosBetween(origin, s.start));
    w.Member("end_us", MicrosBetween(origin, s.end));
    if (s.request != 0) w.Member("request", static_cast<int64_t>(s.request));
    if (!s.keys.empty()) w.Member("keys", static_cast<int64_t>(s.keys.size()));
    w.EndObject();
    const std::string& line = w.Finish();
    std::fwrite(line.data(), 1, line.size(), fp);
    std::fputc('\n', fp);
  }
  return std::fclose(fp) == 0;
}

}  // namespace perfbench
