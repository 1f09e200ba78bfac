// HybridRouter — a core::ServableModel that fronts the estimator zoo with
// per-query-class routing and graceful degradation.
//
// Backends:
//   * primary — the served deep model (UAE or sharded — any
//     ServableModel). Default for every class: accurate, milliseconds.
//   * candidates, in precedence order (kCandidates): the kNN — an online
//     per-class k-nearest-neighbour regression over recent (literal
//     features, log true cardinality) feedback pairs (router/knn.h, the AQO
//     OkNNr design), microseconds — then the alt, an optional second full
//     ServableModel (SetAltBackend; the query-driven SPN backend). A class
//     on both serves from the kNN and never pays a model inference.
//   * floor   — a bounded-latency classical estimator (histogram/sampling;
//     any estimators::CardinalityEstimator). Engages per request when the
//     load probe reports an SLO breach: under overload the router degrades
//     to cheap-but-bounded answers instead of stalling the queue.
//
// One rule for every candidate: with q its rolling (shadow-evaluated)
// q-error on a class and p the primary's, the class may be promoted onto it
// when q <= 4 and q * promote_edge <= p, and demoted when q > 8 or
// q * demote_edge > p, each after two consecutive eligible update rounds so
// classes do not flap. The kNN (edges 0.5 / 0) may trail the primary by up
// to 2x and is never demoted just for trailing it; the alt (1.2 / 1.0) must
// beat the primary by 1.2x and is demoted once that edge is gone.
//
// Routing tables are learned ONLINE from the serving feedback stream
// (online::FeedbackCollector): ObserveFeedback() folds drained entries into
// per-class rolling q-error per backend plus the class's kNN point ring, and
// republishes the routing table through a util::VersionedSlot — readers
// never block, in-flight requests finish on the table they started with.
//
// Determinism caveat: within one routing-table generation and with the load
// probe healthy (or unset), estimates are pure functions of (router state,
// query) like every other servable. The degradation path is intentionally
// load-dependent — bounded latency under overload is the point — so bitwise
// reproducibility is scoped to the non-degraded paths (see
// docs/DETERMINISM.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/servable.h"
#include "estimators/estimator.h"
#include "online/feedback.h"
#include "router/knn.h"
#include "router/query_class.h"
#include "serve/latency.h"
#include "util/quantiles.h"
#include "util/versioned_slot.h"

namespace uae::router {

/// Which backend answered (indices into per-backend stat arrays).
enum class Backend : uint8_t { kPrimary = 0, kKnn = 1, kFloor = 2, kAlt = 3 };
inline constexpr size_t kNumBackends = 4;
const char* BackendName(Backend b);

/// Instantaneous load signal the degradation trigger reads — wired to the
/// serving layer's queue hooks (serve::EstimationService::QueueDepth /
/// OldestQueuedWaitMicros) in a served deployment, or to any custom gauge.
struct RouterLoad {
  size_t queue_depth = 0;       ///< Requests currently queued behind this one.
  uint64_t oldest_wait_us = 0;  ///< How long the oldest queued request waited.
};
using LoadProbe = std::function<RouterLoad()>;

struct RouterConfig {
  KnnConfig knn;
  /// Queue-depth ceiling; 0 disables the depth trigger.
  size_t queue_depth_limit = 0;
  /// Per-request latency SLO in microseconds, compared against the oldest
  /// queued request's wait; 0 disables the latency trigger.
  uint64_t latency_slo_us = 0;
  /// Consecutive healthy probes required to leave the degraded state
  /// (recovery hysteresis; entry is immediate — a stall must never wait).
  int recover_after = 16;
};

/// Per-backend slice of a RouterStats() snapshot.
struct BackendStats {
  uint64_t requests = 0;
  serve::LatencySnapshot latency;   ///< p50/p95/p99/max over served requests.
  util::ErrorSummary qerror;        ///< Over the feedback q-error window.
};

struct RouterStatsSnapshot {
  BackendStats backends[kNumBackends];  ///< Indexed by Backend.
  uint64_t requests = 0;                ///< Sum over backends.
  bool degraded = false;                ///< Currently in the degraded state.
  uint64_t degraded_requests = 0;       ///< Requests the floor absorbed.
  uint64_t degrade_transitions = 0;     ///< Enter/leave state changes.
  uint64_t routing_generation = 0;      ///< Published routing-table version.
  uint64_t feedback_observed = 0;       ///< Feedback entries folded in.
  size_t classes = 0;                   ///< Classes in the published table.
  size_t knn_classes = 0;               ///< ...of which route to kNN.
  size_t alt_classes = 0;               ///< ...of which route to the alt model.
};

class HybridRouter : public core::ServableModel {
 public:
  /// `primary` answers by default and backs FineTune/CloneServable; `floor`
  /// is the bounded-latency degradation backend; `domains[c]` is column c's
  /// dictionary size (feature normalization — see router/query_class.h).
  HybridRouter(std::shared_ptr<core::ServableModel> primary,
               std::shared_ptr<const estimators::CardinalityEstimator> floor,
               std::vector<int32_t> domains, const RouterConfig& config = {});

  // ---- core::ServableModel --------------------------------------------------
  double EstimateCard(const workload::Query& query) const override;
  /// Batched routing: each model-backed backend (primary, alt) gets its
  /// share in one batched call; kNN/floor shares are answered directly (they
  /// are microsecond paths). The degradation probe is evaluated once per
  /// batch.
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return primary_->num_rows(); }
  uint64_t seed() const override { return primary_->seed(); }
  /// Clones the primary (deep) and shares the immutable floor and alt; the
  /// clone starts from THIS router's current routing table and fresh stats.
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  /// Delegates to the primary backend (the only trainable one).
  size_t FineTune(const workload::Workload& workload,
                  const core::FineTuneSpec& spec) override;

  // ---- Online routing-table learning ---------------------------------------
  /// Folds labeled feedback into the per-class backend statistics and kNN
  /// rings, re-derives per-class routing with hysteresis, and publishes the
  /// new table generation-atomically. Join-tagged entries (join_mask != 0)
  /// are skipped — the router serves single-table traffic. Returns the
  /// number of entries folded in.
  size_t ObserveFeedback(std::span<const online::FeedbackEntry> entries);
  /// Convenience fan-in: Drain()s the collector through ObserveFeedback.
  size_t UpdateFromCollector(online::FeedbackCollector* collector);

  /// Installs the optional alt backend (a second full ServableModel, e.g.
  /// estimators::SpnServable). Like SetLoadProbe, must be wired before
  /// concurrent serving starts; classes are only ever promoted onto the alt
  /// after it is set. Pass nullptr to clear.
  void SetAltBackend(std::shared_ptr<const core::ServableModel> alt);

  // ---- Degradation + observability -----------------------------------------
  /// Installs the load signal the degradation trigger reads. Must be wired
  /// before concurrent serving starts (the probe pointer itself is not
  /// hot-swappable; its readings of course are).
  void SetLoadProbe(LoadProbe probe);

  RouterStatsSnapshot RouterStats() const;
  uint64_t RoutingGeneration() const;
  /// The backend the published table currently assigns to `query`'s class
  /// (ignoring degradation) — what a non-breached request would hit.
  Backend RouteFor(const workload::Query& query) const;

 private:
  /// One class's slice of the immutable published table.
  struct ClassRoute {
    Backend backend = Backend::kPrimary;
    ClassKnn knn;  ///< Populated only for kNN-routed classes.
  };
  struct RoutingTable {
    uint64_t generation = 0;  ///< Assigned by the slot.
    std::unordered_map<uint64_t, ClassRoute> routes;
    size_t knn_classes = 0;
    size_t alt_classes = 0;
  };
  /// A request's backend after route resolution, with the kNN's answer.
  struct Resolved {
    Backend backend = Backend::kPrimary;
    double knn_card = 0.0;
  };

  /// A routing candidate and its edges in the promotion rule (top of file).
  struct Candidate {
    Backend backend;
    double promote_edge;
    double demote_edge;
  };
  static constexpr Candidate kCandidates[] = {
      {Backend::kKnn, 0.5, 0.0},
      {Backend::kAlt, 1.2, 1.0},
  };
  static constexpr size_t kNumCandidates = std::size(kCandidates);

  /// One candidate's hysteresis state on one class.
  struct CandidateState {
    bool on = false;
    int promote_streak = 0;
    int demote_streak = 0;
  };
  /// Learner-side mutable per-class state (guarded by learn_mu_).
  struct ClassState {
    KnnRing ring;
    // Rolling log-q-error EMA + sample count, one per backend.
    double qerr_log[kNumBackends] = {};
    uint64_t qerr_n[kNumBackends] = {};
    CandidateState candidates[kNumCandidates];  ///< Indexed like kCandidates.
    explicit ClassState(size_t capacity) : ring(capacity) {}
    void AddQerr(Backend backend, double q);
  };

  /// Clone constructor: starts from `table` as generation 1.
  HybridRouter(std::shared_ptr<core::ServableModel> primary,
               std::shared_ptr<const estimators::CardinalityEstimator> floor,
               std::vector<int32_t> domains, const RouterConfig& config,
               RoutingTable table);

  /// The floor when `degraded` (counted); else classifies `query`, looks up
  /// its class, and falls back to the primary when the chosen candidate
  /// cannot answer (an underfilled kNN snapshot, or a table that predates an
  /// alt teardown).
  Resolved Resolve(const RoutingTable& table, const workload::Query& query,
                   bool degraded) const;
  double Answer(const Resolved& resolved, const workload::Query& query) const;
  /// The primary or installed alt behind `backend`, else nullptr.
  const core::ServableModel* ModelFor(Backend backend) const;
  /// The kNN always; the alt once set.
  bool Installed(Backend candidate) const;
  /// The first installed candidate `state` is on, else the primary.
  Backend ServingBackend(const ClassState& state) const;
  /// Rebuilds the immutable table from learner state; caller holds learn_mu_.
  void RepublishLocked();
  /// Evaluates the degradation state machine against one probe reading.
  bool CheckDegraded() const;
  void RecordServed(Backend backend, uint64_t micros) const;

  const std::shared_ptr<core::ServableModel> primary_;
  const std::shared_ptr<const estimators::CardinalityEstimator> floor_;
  /// Optional second model backend; immutable once serving starts (wired via
  /// SetAltBackend like the probe).
  std::shared_ptr<const core::ServableModel> alt_;
  const std::vector<int32_t> domains_;
  const RouterConfig config_;

  util::VersionedSlot<RoutingTable> table_;

  LoadProbe probe_;  ///< Unset => degradation disabled.

  // Learner state.
  mutable std::mutex learn_mu_;
  std::unordered_map<uint64_t, ClassState> classes_;
  uint64_t feedback_observed_ = 0;

  // Degradation state machine (request-path side; atomics only).
  mutable std::atomic<bool> degraded_{false};
  mutable std::atomic<int> healthy_streak_{0};
  mutable std::atomic<uint64_t> degrade_transitions_{0};
  mutable std::atomic<uint64_t> degraded_requests_{0};

  // Per-backend serving stats.
  mutable std::atomic<uint64_t> served_[kNumBackends] = {};
  mutable serve::LatencyHistogram latency_[kNumBackends];

  // Per-backend q-error sample windows (feedback side; guarded by learn_mu_).
  struct QerrWindow {
    std::vector<double> samples;
    size_t next = 0;
    void Add(double q);
  };
  QerrWindow qerr_windows_[kNumBackends];
};

}  // namespace uae::router
