#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "util/common.h"
#include "workload/metrics.h"

namespace uae::router {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Hard cap on tracked classes; feedback for classes beyond it is dropped
/// (bounded memory under adversarial template churn).
constexpr size_t kMaxClasses = 4096;
/// EMA weight of a new observation in the per-backend rolling log-q-error.
constexpr double kQerrSmoothing = 0.25;
/// The promotion rule's absolute bars (router.h): the gap between them is
/// the hysteresis band.
constexpr double kPromoteQerr = 4.0;
constexpr double kDemoteQerr = 8.0;
/// Consecutive update rounds a class must stay eligible before it is
/// promoted / demoted — no flapping on one noisy batch.
constexpr int kPromoteAfter = 2;
constexpr int kDemoteAfter = 2;
/// Per-backend q-error sample window feeding RouterStats() summaries.
constexpr size_t kQerrWindow = 1024;

size_t Index(Backend b) { return static_cast<size_t>(b); }

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kPrimary:
      return "primary";
    case Backend::kKnn:
      return "knn";
    case Backend::kFloor:
      return "floor";
    case Backend::kAlt:
      return "alt";
  }
  return "?";
}

void HybridRouter::QerrWindow::Add(double q) {
  if (samples.size() < kQerrWindow) {
    samples.push_back(q);
    return;
  }
  samples[next] = q;
  next = (next + 1) % kQerrWindow;
}

void HybridRouter::ClassState::AddQerr(Backend backend, double q) {
  const size_t i = Index(backend);
  const double lq = std::log(q);
  qerr_log[i] = qerr_n[i] == 0 ? lq
                               : (1.0 - kQerrSmoothing) * qerr_log[i] +
                                     kQerrSmoothing * lq;
  ++qerr_n[i];
}

HybridRouter::HybridRouter(
    std::shared_ptr<core::ServableModel> primary,
    std::shared_ptr<const core::ServableModel> floor,
    std::vector<int32_t> domains, const RouterConfig& config)
    : HybridRouter(std::move(primary), std::move(floor), std::move(domains),
                   config, RoutingTable{}) {}

HybridRouter::HybridRouter(
    std::shared_ptr<core::ServableModel> primary,
    std::shared_ptr<const core::ServableModel> floor,
    std::vector<int32_t> domains, const RouterConfig& config,
    RoutingTable table)
    : primary_(std::move(primary)),
      floor_(std::move(floor)),
      domains_(std::move(domains)),
      config_(config),
      table_(std::move(table)) {
  UAE_CHECK(primary_ != nullptr);
  UAE_CHECK(floor_ != nullptr);
}

bool HybridRouter::CheckDegraded() const {
  if (!probe_) return false;
  const RouterLoad load = probe_();
  const bool breach =
      (config_.queue_depth_limit > 0 &&
       load.queue_depth > config_.queue_depth_limit) ||
      (config_.latency_slo_us > 0 && load.oldest_wait_us > config_.latency_slo_us);
  if (breach) {
    // Entry is immediate: one breached probe flips the router to the floor.
    healthy_streak_.store(0, std::memory_order_relaxed);
    if (!degraded_.exchange(true, std::memory_order_relaxed)) {
      degrade_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  if (!degraded_.load(std::memory_order_relaxed)) return false;
  // Leaving requires `recover_after` consecutive healthy probes (hysteresis:
  // a queue draining through the limit must not flap the state per request).
  const int streak = healthy_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= config_.recover_after) {
    if (degraded_.exchange(false, std::memory_order_relaxed)) {
      degrade_transitions_.fetch_add(1, std::memory_order_relaxed);
    }
    healthy_streak_.store(0, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void HybridRouter::RecordServed(Backend backend, uint64_t micros) const {
  const size_t i = static_cast<size_t>(backend);
  served_[i].fetch_add(1, std::memory_order_relaxed);
  latency_[i].Record(micros);
}

const core::ServableModel* HybridRouter::ModelFor(Backend backend) const {
  if (backend == Backend::kPrimary) return primary_.get();
  return backend == Backend::kAlt ? alt_.get() : nullptr;
}

HybridRouter::Resolved HybridRouter::Resolve(const RoutingTable& table,
                                             const workload::Query& query,
                                             bool degraded) const {
  if (degraded) {
    degraded_requests_.fetch_add(1, std::memory_order_relaxed);
    return {Backend::kFloor};
  }
  if (static_cast<size_t>(query.num_cols()) != domains_.size()) return {};
  const QueryClass qc = ClassifyQuery(query, domains_);
  const auto it = table.routes.find(qc.fss);
  if (it == table.routes.end()) return {};
  const ClassRoute& route = it->second;
  if (route.backend == Backend::kKnn) {
    const auto log_card = route.knn.PredictLogCard(qc.features, config_.knn);
    if (!log_card.has_value()) return {};
    return {Backend::kKnn,
            std::clamp(std::exp(*log_card), 0.0,
                       static_cast<double>(primary_->num_rows()))};
  }
  if (ModelFor(route.backend) == nullptr) return {};
  return {route.backend};
}

double HybridRouter::Answer(const Resolved& resolved,
                            const workload::Query& query) const {
  if (resolved.backend == Backend::kKnn) return resolved.knn_card;
  if (resolved.backend == Backend::kFloor) return floor_->EstimateCard(query);
  return ModelFor(resolved.backend)->EstimateCard(query);
}

double HybridRouter::EstimateCard(const workload::Query& query) const {
  const uint64_t start = NowMicros();
  const Resolved resolved =
      Resolve(*table_.Current(), query, CheckDegraded());
  const double estimate = Answer(resolved, query);
  RecordServed(resolved.backend, NowMicros() - start);
  return estimate;
}

std::vector<double> HybridRouter::EstimateCards(
    std::span<const workload::Query> queries) const {
  const auto table = table_.Current();
  // One probe reading covers the whole batch: requests admitted together
  // degrade together (and per-element probing would dominate micro paths).
  const bool degraded = CheckDegraded();

  std::vector<double> out(queries.size(), 0.0);
  // Model-backed shares, deferred to one batched call per backend below.
  std::vector<workload::Query> batches[kNumBackends];
  std::vector<size_t> slots[kNumBackends];
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t start = NowMicros();
    const Resolved resolved = Resolve(*table, queries[i], degraded);
    if (ModelFor(resolved.backend) != nullptr) {
      batches[Index(resolved.backend)].push_back(queries[i]);
      slots[Index(resolved.backend)].push_back(i);
      continue;
    }
    out[i] = Answer(resolved, queries[i]);
    RecordServed(resolved.backend, NowMicros() - start);
  }

  for (size_t b = 0; b < kNumBackends; ++b) {
    if (batches[b].empty()) continue;
    const Backend backend = static_cast<Backend>(b);
    const uint64_t start = NowMicros();
    const std::vector<double> results = ModelFor(backend)->EstimateCards(
        std::span<const workload::Query>(batches[b]));
    UAE_CHECK_EQ(results.size(), slots[b].size());
    // Per-request latency is the batch mean — the batch is the unit of work.
    const uint64_t per_request = (NowMicros() - start) / slots[b].size();
    for (size_t j = 0; j < slots[b].size(); ++j) {
      out[slots[b][j]] = results[j];
      RecordServed(backend, per_request);
    }
  }
  return out;
}

size_t HybridRouter::SizeBytes() const {
  size_t bytes = primary_->SizeBytes() + floor_->SizeBytes();
  if (alt_ != nullptr) bytes += alt_->SizeBytes();
  const auto table = table_.Current();
  for (const auto& [fss, route] : table->routes) {
    bytes += sizeof(fss) + sizeof(route) +
             route.knn.size() * (route.knn.dim() * sizeof(float) + sizeof(double));
  }
  return bytes;
}

std::shared_ptr<core::ServableModel> HybridRouter::CloneServable() const {
  // The clone starts from this router's current routing table (as its own
  // generation 1) with fresh learner state and stats.
  std::shared_ptr<HybridRouter> clone(
      new HybridRouter(primary_->CloneServable(), floor_, domains_, config_,
                       *table_.Current()));
  clone->alt_ = alt_;  // Immutable through the router; shared like the floor.
  return clone;
}

size_t HybridRouter::FineTune(const workload::Workload& workload,
                              const core::FineTuneSpec& spec) {
  return primary_->FineTune(workload, spec);
}

bool HybridRouter::Installed(Backend candidate) const {
  return candidate == Backend::kKnn || ModelFor(candidate) != nullptr;
}

Backend HybridRouter::ServingBackend(const ClassState& state) const {
  for (size_t c = 0; c < kNumCandidates; ++c) {
    const Backend backend = kCandidates[c].backend;
    if (state.candidates[c].on && Installed(backend)) return backend;
  }
  return Backend::kPrimary;
}

size_t HybridRouter::ObserveFeedback(
    std::span<const online::FeedbackEntry> entries) {
  std::lock_guard<std::mutex> lock(learn_mu_);
  size_t folded = 0;
  // Classes touched this round; routing is re-derived once per class below
  // (streaks advance per update round, not per entry).
  std::vector<uint64_t> touched;
  for (const online::FeedbackEntry& entry : entries) {
    if (entry.join_mask != 0) continue;  // Single-table router.
    if (static_cast<size_t>(entry.query.num_cols()) != domains_.size()) continue;
    const QueryClass qc = ClassifyQuery(entry.query, domains_);
    auto it = classes_.find(qc.fss);
    if (it == classes_.end()) {
      if (classes_.size() >= kMaxClasses) continue;  // Bounded memory.
      it = classes_.emplace(qc.fss, ClassState(config_.knn.capacity)).first;
      touched.push_back(qc.fss);
    } else if (std::find(touched.begin(), touched.end(), qc.fss) ==
               touched.end()) {
      touched.push_back(qc.fss);
    }
    ClassState& state = it->second;

    // Charge the served estimate's q-error to the backend the class was
    // routed to when it was served (an approximation: the entry does not
    // record its backend, and degradation may have floored it). A class's
    // first entry is always charged to the primary, so the primary's EMA is
    // set before any routing decision reads it.
    const Backend served_by = ServingBackend(state);
    const double served_q =
        workload::QError(entry.estimated_card, entry.true_card);
    qerr_windows_[Index(served_by)].Add(served_q);
    if (served_by == Backend::kPrimary) state.AddQerr(served_by, served_q);

    // Shadow-evaluate every installed candidate: its EMA is what promotion
    // and demotion judge. The kNN predicts BEFORE this point is added, so a
    // class must earn its promotion on unseen points. A candidate that served
    // the entry already has the served q-error in its window.
    for (const Candidate& candidate : kCandidates) {
      std::optional<double> shadow;
      if (candidate.backend == Backend::kKnn) {
        const auto log_card =
            state.ring.Freeze().PredictLogCard(qc.features, config_.knn);
        if (log_card.has_value()) shadow = std::exp(*log_card);
      } else if (const auto* model = ModelFor(candidate.backend)) {
        shadow = model->EstimateCard(entry.query);
      }
      if (!shadow.has_value()) continue;  // Not enough kNN points, or no alt.
      const double q = workload::QError(*shadow, entry.true_card);
      state.AddQerr(candidate.backend, q);
      if (candidate.backend != served_by) {
        qerr_windows_[Index(candidate.backend)].Add(q);
      }
    }
    qerr_windows_[Index(Backend::kFloor)].Add(
        workload::QError(floor_->EstimateCard(entry.query), entry.true_card));

    state.ring.Add(qc.features, std::log(std::max(1.0, entry.true_card)));
    ++folded;
  }
  feedback_observed_ += folded;

  // Re-derive routing with hysteresis for every class touched this round.
  for (const uint64_t fss : touched) {
    ClassState& state = classes_.at(fss);
    const double primary_q = std::exp(state.qerr_log[Index(Backend::kPrimary)]);
    for (size_t c = 0; c < kNumCandidates; ++c) {
      const Candidate& candidate = kCandidates[c];
      if (!Installed(candidate.backend)) continue;
      const size_t i = Index(candidate.backend);
      const bool scored = state.qerr_n[i] > 0;
      const double q = std::exp(state.qerr_log[i]);
      const bool promotable = scored && q <= kPromoteQerr &&
                              q * candidate.promote_edge <= primary_q;
      const bool demotable = !scored || q > kDemoteQerr ||
                             q * candidate.demote_edge > primary_q;
      CandidateState& cs = state.candidates[c];
      if (!cs.on) {
        cs.promote_streak = promotable ? cs.promote_streak + 1 : 0;
        if (cs.promote_streak >= kPromoteAfter) cs = {true, 0, 0};
      } else {
        cs.demote_streak = demotable ? cs.demote_streak + 1 : 0;
        if (cs.demote_streak >= kDemoteAfter) cs = {false, 0, 0};
      }
    }
  }

  if (folded > 0) RepublishLocked();
  return folded;
}

size_t HybridRouter::UpdateFromCollector(online::FeedbackCollector* collector) {
  UAE_CHECK(collector != nullptr);
  const std::vector<online::FeedbackEntry> entries = collector->Drain();
  return ObserveFeedback(entries);
}

void HybridRouter::RepublishLocked() {
  RoutingTable table;
  table.routes.reserve(classes_.size());
  for (const auto& [fss, state] : classes_) {
    ClassRoute route;
    route.backend = ServingBackend(state);
    if (route.backend == Backend::kKnn) {
      route.knn = state.ring.Freeze();
      ++table.knn_classes;
    } else if (route.backend == Backend::kAlt) {
      ++table.alt_classes;
    }
    table.routes.emplace(fss, std::move(route));
  }
  table_.Publish(std::move(table));
}

void HybridRouter::SetAltBackend(
    std::shared_ptr<const core::ServableModel> alt) {
  alt_ = std::move(alt);
}

void HybridRouter::SetLoadProbe(LoadProbe probe) { probe_ = std::move(probe); }

uint64_t HybridRouter::RoutingGeneration() const {
  return table_.CurrentGeneration();
}

Backend HybridRouter::RouteFor(const workload::Query& query) const {
  return Resolve(*table_.Current(), query, /*degraded=*/false).backend;
}

RouterStatsSnapshot HybridRouter::RouterStats() const {
  RouterStatsSnapshot snap;
  for (size_t i = 0; i < kNumBackends; ++i) {
    snap.backends[i].requests = served_[i].load(std::memory_order_relaxed);
    snap.backends[i].latency = latency_[i].Snapshot();
    snap.requests += snap.backends[i].requests;
  }
  {
    std::lock_guard<std::mutex> lock(learn_mu_);
    for (size_t i = 0; i < kNumBackends; ++i) {
      snap.backends[i].qerror = util::Summarize(qerr_windows_[i].samples);
    }
    snap.feedback_observed = feedback_observed_;
  }
  const auto table = table_.Current();
  snap.routing_generation = table->generation;
  snap.classes = table->routes.size();
  snap.knn_classes = table->knn_classes;
  snap.alt_classes = table->alt_classes;
  snap.degraded = degraded_.load(std::memory_order_relaxed);
  snap.degraded_requests = degraded_requests_.load(std::memory_order_relaxed);
  snap.degrade_transitions = degrade_transitions_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace uae::router
