#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>

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

void HybridRouter::QerrWindow::Add(double q, size_t cap) {
  if (cap == 0) return;
  if (samples.size() < cap) {
    samples.push_back(q);
    return;
  }
  samples[next] = q;
  next = (next + 1) % cap;
}

HybridRouter::HybridRouter(
    std::shared_ptr<core::ServableModel> primary,
    std::shared_ptr<const estimators::CardinalityEstimator> floor,
    std::vector<int32_t> domains, const RouterConfig& config)
    : primary_(std::move(primary)),
      floor_(std::move(floor)),
      domains_(std::move(domains)),
      config_(config) {
  UAE_CHECK(primary_ != nullptr);
  UAE_CHECK(floor_ != nullptr);
  auto initial = std::make_shared<RoutingTable>();
  initial->generation = 1;
  PublishTable(std::move(initial));
}

std::shared_ptr<const HybridRouter::RoutingTable> HybridRouter::Table() const {
#ifdef UAE_ROUTER_TSAN
  std::lock_guard<std::mutex> lock(table_mu_);
  return table_;
#else
  return table_.load(std::memory_order_acquire);
#endif
}

void HybridRouter::PublishTable(std::shared_ptr<const RoutingTable> table) {
#ifdef UAE_ROUTER_TSAN
  std::lock_guard<std::mutex> lock(table_mu_);
  table_ = std::move(table);
#else
  table_.store(std::move(table), std::memory_order_release);
#endif
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

double HybridRouter::EstimateVia(Backend backend, const workload::Query& query,
                                 const QueryClass& qc,
                                 const ClassRoute* route) const {
  switch (backend) {
    case Backend::kFloor:
      return floor_->EstimateCard(query);
    case Backend::kKnn: {
      UAE_CHECK(route != nullptr);
      const auto log_card =
          route->knn.PredictLogCard(qc.features, config_.knn);
      UAE_CHECK(log_card.has_value());
      return std::clamp(std::exp(*log_card), 0.0,
                        static_cast<double>(primary_->num_rows()));
    }
    case Backend::kAlt:
      UAE_CHECK(alt_ != nullptr);
      return alt_->EstimateCard(query);
    case Backend::kPrimary:
      break;
  }
  return primary_->EstimateCard(query);
}

double HybridRouter::EstimateCard(const workload::Query& query) const {
  const uint64_t start = NowMicros();
  const auto table = Table();

  Backend backend = Backend::kPrimary;
  const ClassRoute* route = nullptr;
  QueryClass qc;
  if (static_cast<size_t>(query.num_cols()) == domains_.size()) {
    qc = ClassifyQuery(query, domains_);
    const auto it = table->routes.find(qc.fss);
    if (it != table->routes.end()) {
      route = &it->second;
      backend = route->backend;
    }
  }
  if (backend == Backend::kKnn &&
      !route->knn.PredictLogCard(qc.features, config_.knn).has_value()) {
    backend = Backend::kPrimary;  // Stale/underfilled snapshot: fall back.
  }
  if (backend == Backend::kAlt && alt_ == nullptr) {
    backend = Backend::kPrimary;  // Table predates an alt teardown.
  }
  if (CheckDegraded()) {
    backend = Backend::kFloor;
    degraded_requests_.fetch_add(1, std::memory_order_relaxed);
  }

  const double estimate = EstimateVia(backend, query, qc, route);
  RecordServed(backend, NowMicros() - start);
  return estimate;
}

std::vector<double> HybridRouter::EstimateCards(
    std::span<const workload::Query> queries) const {
  const auto table = Table();
  // One probe reading covers the whole batch: requests admitted together
  // degrade together (and per-element probing would dominate micro paths).
  const bool degraded = CheckDegraded();

  std::vector<double> out(queries.size(), 0.0);
  std::vector<workload::Query> primary_queries, alt_queries;
  std::vector<size_t> primary_slots, alt_slots;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t start = NowMicros();
    const workload::Query& query = queries[i];
    Backend backend = Backend::kPrimary;
    const ClassRoute* route = nullptr;
    QueryClass qc;
    if (static_cast<size_t>(query.num_cols()) == domains_.size()) {
      qc = ClassifyQuery(query, domains_);
      const auto it = table->routes.find(qc.fss);
      if (it != table->routes.end()) {
        route = &it->second;
        backend = route->backend;
      }
    }
    if (backend == Backend::kKnn &&
        !route->knn.PredictLogCard(qc.features, config_.knn).has_value()) {
      backend = Backend::kPrimary;
    }
    if (backend == Backend::kAlt && alt_ == nullptr) {
      backend = Backend::kPrimary;
    }
    if (degraded) {
      backend = Backend::kFloor;
      degraded_requests_.fetch_add(1, std::memory_order_relaxed);
    }
    if (backend == Backend::kPrimary) {
      // Deferred to the primary's batched fan-out path below.
      primary_queries.push_back(query);
      primary_slots.push_back(i);
      continue;
    }
    if (backend == Backend::kAlt) {
      // Full-model backends both get their batched path.
      alt_queries.push_back(query);
      alt_slots.push_back(i);
      continue;
    }
    out[i] = EstimateVia(backend, query, qc, route);
    RecordServed(backend, NowMicros() - start);
  }

  const auto run_batch = [&](core::ServableModel const& model, Backend backend,
                             const std::vector<workload::Query>& batch,
                             const std::vector<size_t>& slots) {
    if (batch.empty()) return;
    const uint64_t start = NowMicros();
    const std::vector<double> results =
        model.EstimateCards(std::span<const workload::Query>(batch));
    UAE_CHECK_EQ(results.size(), slots.size());
    // Per-request latency is the batch mean — the batch is the unit of work.
    const uint64_t per_request = (NowMicros() - start) / slots.size();
    for (size_t j = 0; j < slots.size(); ++j) {
      out[slots[j]] = results[j];
      RecordServed(backend, per_request);
    }
  };
  run_batch(*primary_, Backend::kPrimary, primary_queries, primary_slots);
  if (alt_ != nullptr) {
    run_batch(*alt_, Backend::kAlt, alt_queries, alt_slots);
  }
  return out;
}

size_t HybridRouter::SizeBytes() const {
  size_t bytes = primary_->SizeBytes() + floor_->SizeBytes();
  if (alt_ != nullptr) bytes += alt_->SizeBytes();
  const auto table = Table();
  for (const auto& [fss, route] : table->routes) {
    bytes += sizeof(fss) + sizeof(route) +
             route.knn.size() * (route.knn.dim() * sizeof(float) + sizeof(double));
  }
  return bytes;
}

std::shared_ptr<core::ServableModel> HybridRouter::CloneServable() const {
  auto clone = std::make_shared<HybridRouter>(
      primary_->CloneServable(), floor_, domains_, config_);
  clone->alt_ = alt_;  // Immutable through the router; shared like the floor.
  // The clone starts from this router's current routing table (re-published
  // as its own generation 1) with fresh learner state and stats.
  auto table = std::make_shared<RoutingTable>(*Table());
  table->generation = 1;
  clone->PublishTable(std::move(table));
  return clone;
}

size_t HybridRouter::FineTune(const workload::Workload& workload,
                              const core::FineTuneSpec& spec) {
  return primary_->FineTune(workload, spec);
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
      if (classes_.size() >= config_.max_classes) continue;  // Bounded memory.
      it = classes_.emplace(qc.fss, ClassState(config_.knn.capacity)).first;
      touched.push_back(qc.fss);
    } else if (std::find(touched.begin(), touched.end(), qc.fss) ==
               touched.end()) {
      touched.push_back(qc.fss);
    }
    ClassState& state = it->second;

    const auto ema_update = [&](Backend b, double q) {
      const size_t i = static_cast<size_t>(b);
      const double lq = std::log(q);
      state.qerr_log[i] = state.qerr_n[i] == 0
                              ? lq
                              : (1.0 - config_.qerr_smoothing) * state.qerr_log[i] +
                                    config_.qerr_smoothing * lq;
      ++state.qerr_n[i];
    };

    // Attribute the served estimate's q-error to the backend the class was
    // routed to when it was served (an approximation: the entry does not
    // record its backend, and degradation may have floored it).
    const Backend served_by = state.on_knn
                                  ? Backend::kKnn
                                  : (state.on_alt && alt_ != nullptr
                                         ? Backend::kAlt
                                         : Backend::kPrimary);
    const double served_q =
        workload::QError(entry.estimated_card, entry.true_card);
    qerr_windows_[static_cast<size_t>(served_by)].Add(served_q,
                                                      config_.qerr_window);
    if (served_by == Backend::kPrimary) ema_update(Backend::kPrimary, served_q);

    // Shadow-evaluate the cheap backends on every labeled entry: the kNN
    // prediction BEFORE this point is added (so the class must earn its
    // promotion on unseen points), and the floor estimator directly.
    const auto knn_log =
        state.ring.Freeze().PredictLogCard(qc.features, config_.knn);
    if (knn_log.has_value()) {
      // The kNN EMA always tracks the shadow value, whether or not the class
      // currently serves from kNN (the shadow is what promotion/demotion
      // must judge).
      ema_update(Backend::kKnn,
                 workload::QError(std::exp(*knn_log), entry.true_card));
    }
    const double floor_q =
        workload::QError(floor_->EstimateCard(entry.query), entry.true_card);
    ema_update(Backend::kFloor, floor_q);
    qerr_windows_[static_cast<size_t>(Backend::kFloor)].Add(
        floor_q, config_.qerr_window);
    if (alt_ != nullptr) {
      // Shadow-evaluate the alt model too — its EMA is what promotion must
      // judge. (When the class already serves from the alt, the served
      // q-error above is the same signal; skip the duplicate window sample.)
      const double alt_q =
          workload::QError(alt_->EstimateCard(entry.query), entry.true_card);
      ema_update(Backend::kAlt, alt_q);
      if (served_by != Backend::kAlt) {
        qerr_windows_[static_cast<size_t>(Backend::kAlt)].Add(
            alt_q, config_.qerr_window);
      }
    }

    state.ring.Add(qc.features, std::log(std::max(1.0, entry.true_card)));
    ++folded;
  }
  feedback_observed_ += folded;

  // Re-derive routing with hysteresis for every class touched this round.
  for (const uint64_t fss : touched) {
    ClassState& state = classes_.at(fss);
    const size_t knn_i = static_cast<size_t>(Backend::kKnn);
    const size_t pri_i = static_cast<size_t>(Backend::kPrimary);
    const bool has_knn = state.qerr_n[knn_i] > 0 &&
                         state.ring.size() >= config_.knn.min_points;
    const double knn_q = has_knn ? std::exp(state.qerr_log[knn_i]) : 0.0;
    const double pri_q = std::exp(state.qerr_log[pri_i]);
    const bool promotable =
        has_knn && knn_q <= config_.knn_promote_qerr &&
        (state.qerr_n[pri_i] == 0 || knn_q <= config_.knn_promote_margin * pri_q);
    const bool demotable = !has_knn || knn_q > config_.knn_demote_qerr;

    if (!state.on_knn) {
      state.promote_streak = promotable ? state.promote_streak + 1 : 0;
      if (state.promote_streak >= config_.promote_after) {
        state.on_knn = true;
        state.promote_streak = 0;
        state.demote_streak = 0;
      }
    } else {
      state.demote_streak = demotable ? state.demote_streak + 1 : 0;
      if (state.demote_streak >= config_.demote_after) {
        state.on_knn = false;
        state.promote_streak = 0;
        state.demote_streak = 0;
      }
    }

    // Alt state machine, independent of kNN (RepublishLocked gives kNN
    // precedence: a class on both serves from kNN).
    if (alt_ != nullptr) {
      const size_t alt_i = static_cast<size_t>(Backend::kAlt);
      const bool has_alt = state.qerr_n[alt_i] > 0;
      const double alt_q = has_alt ? std::exp(state.qerr_log[alt_i]) : 0.0;
      const bool alt_promotable =
          has_alt && state.qerr_n[pri_i] > 0 &&
          alt_q <= config_.alt_promote_qerr &&
          alt_q * config_.alt_promote_margin <= pri_q;
      const bool alt_demotable =
          !has_alt || alt_q > config_.alt_demote_qerr || alt_q > pri_q;
      if (!state.on_alt) {
        state.alt_promote_streak =
            alt_promotable ? state.alt_promote_streak + 1 : 0;
        if (state.alt_promote_streak >= config_.promote_after) {
          state.on_alt = true;
          state.alt_promote_streak = 0;
          state.alt_demote_streak = 0;
        }
      } else {
        state.alt_demote_streak =
            alt_demotable ? state.alt_demote_streak + 1 : 0;
        if (state.alt_demote_streak >= config_.demote_after) {
          state.on_alt = false;
          state.alt_promote_streak = 0;
          state.alt_demote_streak = 0;
        }
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
  auto table = std::make_shared<RoutingTable>();
  table->generation = next_generation_++;
  table->routes.reserve(classes_.size());
  for (const auto& [fss, state] : classes_) {
    ClassRoute route;
    if (state.on_knn) {
      route.backend = Backend::kKnn;
      route.knn = state.ring.Freeze();
      ++table->knn_classes;
    } else if (state.on_alt && alt_ != nullptr) {
      route.backend = Backend::kAlt;
      ++table->alt_classes;
    } else {
      route.backend = Backend::kPrimary;
    }
    table->routes.emplace(fss, std::move(route));
  }
  PublishTable(std::move(table));
}

void HybridRouter::SetAltBackend(
    std::shared_ptr<const core::ServableModel> alt) {
  alt_ = std::move(alt);
}

void HybridRouter::SetLoadProbe(LoadProbe probe) { probe_ = std::move(probe); }

uint64_t HybridRouter::RoutingGeneration() const { return Table()->generation; }

Backend HybridRouter::RouteFor(const workload::Query& query) const {
  if (static_cast<size_t>(query.num_cols()) != domains_.size()) {
    return Backend::kPrimary;
  }
  const QueryClass qc = ClassifyQuery(query, domains_);
  const auto table = Table();
  const auto it = table->routes.find(qc.fss);
  if (it == table->routes.end()) return Backend::kPrimary;
  if (it->second.backend == Backend::kKnn &&
      !it->second.knn.PredictLogCard(qc.features, config_.knn).has_value()) {
    return Backend::kPrimary;
  }
  if (it->second.backend == Backend::kAlt && alt_ == nullptr) {
    return Backend::kPrimary;
  }
  return it->second.backend;
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
  const auto table = Table();
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
