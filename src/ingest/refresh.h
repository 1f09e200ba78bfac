// RefreshController — staleness-driven incremental refresh: the ingest-side
// twin of online::AdaptationController. Where the adaptation loop reacts to
// what MIS-ESTIMATED (query feedback), this loop reacts to what ARRIVED
// (per-shard delta buffers), and reuses the same safety rails: a busy
// try-lock (max one refresh in flight), an optional held-out regression
// guard (online::EvaluateCandidate), and publication through the
// generation-keyed snapshot path.
//
// One refresh cycle:
//   1. StalenessMonitor flags the drifted shards (rows / ratio / unseen
//      triggers) — ONLY those shards retrain.
//   2. Under IngestService::PinTable, gather each stale shard's pending
//      in-domain delta rows (global row indices from its DeltaBuffer) into a
//      dictionary-sharing snapshot table, and collect every overflow-carrying
//      row (all shards) into the tail set.
//   3. Clone the current base model (shard::ShardedServable::Clone —
//      bit-identical parameters), then IngestShardRows per stale shard: §4.5
//      incremental data training on the new rows only, so the shard models
//      must implement ServableModel::IngestDataRows (core::Uae does).
//      Untouched shards keep bitwise-identical parameters through clone +
//      publish.
//   4. Wrap with ingest::DeltaAwareModel when the tail is non-empty (unseen
//      values answer exactly), guard if configured, PublishSnapshot, and
//      advance the refreshed shards' buffer watermarks.
//
// Lineage: the controller owns the typed model chain (base -> refreshed ->
// refreshed ...). Query-feedback fine-tunes published in between by an
// AdaptationController are superseded by the next data refresh, which clones
// from this chain — the two loops coexist, data refresh being the anchor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "ingest/delta_model.h"
#include "ingest/service.h"
#include "ingest/staleness.h"
#include "serve/service.h"
#include "shard/sharded_servable.h"
#include "util/background_loop.h"

namespace uae::ingest {

struct RefreshConfig {
  StalenessConfig staleness;
  /// Unsupervised epochs over each stale shard's new rows (§4.5: a few small
  /// epochs on the delta suffice).
  int data_epochs = 2;
  /// > 0 enables the regression guard: the candidate must keep
  ///   median q-error <= incumbent's * guard_max_ratio
  /// on the holdout workload, or the refresh is rejected (watermarks stay,
  /// so the next cycle retries with more data).
  double guard_max_ratio = 0.0;
  /// Supplies the held-out workload when the guard is enabled (e.g. freshly
  /// labeled queries over the live table).
  std::function<workload::Workload()> holdout_provider;
  uint64_t period_ms = 100;  ///< Background staleness-poll period.
};

enum class RefreshOutcome {
  kSkippedNoStaleShards,  ///< No trigger fired.
  kSkippedBusy,           ///< Another refresh is in flight.
  kRejectedByGuard,       ///< Candidate was worse on the holdout.
  kPublished,             ///< Refreshed model hot-swapped.
};

const char* RefreshOutcomeName(RefreshOutcome outcome);

struct RefreshResult {
  RefreshOutcome outcome = RefreshOutcome::kSkippedNoStaleShards;
  std::vector<int> refreshed_shards;
  size_t rows_ingested = 0;       ///< In-domain delta rows trained on.
  size_t tail_rows = 0;           ///< Overflow rows in the published tail.
  uint64_t generation = 0;        ///< Published generation (kPublished only).
  double incumbent_median = 0.0;  ///< Guard medians (guard runs only).
  double candidate_median = 0.0;
  double seconds = 0.0;
};

struct RefreshStats {
  uint64_t attempts = 0;  ///< Cycles that reached retraining.
  uint64_t published = 0;
  uint64_t rejected = 0;
  uint64_t skipped = 0;
  uint64_t rows_ingested = 0;
  uint64_t last_published_generation = 0;
};

class RefreshController {
 public:
  /// `ingest` and `service` must outlive the controller; `base` is the typed
  /// model the published snapshot was built from (the controller clones it,
  /// never mutates it).
  RefreshController(IngestService* ingest, serve::EstimationService* service,
                    std::shared_ptr<const shard::ShardedServable> base,
                    const RefreshConfig& config = {});
  UAE_DISALLOW_COPY(RefreshController);

  /// Refreshes the stale shards, if any (synchronous building block).
  RefreshResult RefreshIfStale();
  /// Refreshes an explicit shard set regardless of staleness (empty = all
  /// shards with pending rows). Still subject to the busy lock and guard.
  /// CHECK-fails on an id outside [0, num_shards); duplicates are dropped.
  RefreshResult RefreshShards(std::vector<int> shards);

  /// Autonomous mode: polls RefreshIfStale() every period_ms on a
  /// util::BackgroundLoop until Stop() (idempotent; the destructor stops too).
  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }

  const StalenessMonitor& monitor() const { return monitor_; }
  /// Head of the typed lineage (latest refreshed model).
  std::shared_ptr<const shard::ShardedServable> current_base() const;
  RefreshStats Stats() const;
  const RefreshConfig& config() const { return config_; }

 private:
  RefreshResult RunRefresh(std::vector<int> shards,
                           std::unique_lock<std::mutex> busy);

  IngestService* ingest_;
  serve::EstimationService* service_;
  const RefreshConfig config_;
  StalenessMonitor monitor_;

  mutable std::mutex base_mu_;
  std::shared_ptr<const shard::ShardedServable> base_;

  std::mutex busy_mu_;  ///< Max one refresh in flight (try_lock).
  mutable std::mutex stats_mu_;
  RefreshStats stats_;

  /// Declared last, so it is destroyed first: the thread is joined before
  /// any member its tick touches goes away.
  util::BackgroundLoop loop_;
};

}  // namespace uae::ingest
