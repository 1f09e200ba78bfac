// EstimationService — the concurrent serving layer over core::Uae.
//
// Many client threads call Estimate()/EstimateAsync() with single queries —
// or EstimateJoin()/EstimateJoinAsync() with join sub-plans from the query
// optimizer; the service coalesces them into micro-batches through its
// request queue (util::BatchQueue) and fans each batch through
// EstimateCards/EstimateJoinCards, which parallelize progressive sampling
// across the global pool. Because every estimate is a
// pure function of (model, query) — per-query RNG derived from the query
// fingerprint — the served results are bit-identical to sequential
// EstimateCard calls no matter how requests interleave, batch, or hit the
// cache.
//
// A snapshot swap (PublishSnapshot) is a single atomic shared_ptr store: a
// background trainer keeps training its own Uae and publishes Clone()s; every
// response reports the generation of the snapshot that produced it, and the
// result cache keys on (fingerprint, generation) so stale hits are
// impossible by construction.
//
// Deadlock note: a request issued *from a global-pool worker* (e.g. an
// estimator callback inside ParallelFor) is answered inline against the
// current snapshot instead of being queued — if every pool worker blocked on
// the dispatcher, the dispatcher's own ParallelFor fan-out could never run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/servable.h"
#include "serve/latency.h"
#include "serve/result_cache.h"
#include "util/batch_queue.h"
#include "util/common.h"
#include "util/versioned_slot.h"
#include "workload/join_workload.h"
#include "workload/query.h"

namespace uae::serve {

/// What the service answers per query.
struct ServeResult {
  double card = 0.0;         ///< Estimated cardinality.
  uint64_t generation = 0;   ///< Snapshot generation that produced the value.
  bool cache_hit = false;
};

/// One in-flight estimation request. The query is copied in so the request
/// outlives the caller's stack frame (needed for the future-based API).
///
/// Join sub-plan requests ride the same queue: `join_mask` is the joined-table
/// bitset of a workload::JoinQuery (non-empty by construction — even a
/// single-table sub-plan over the join universe has its own bit set — so it is
/// never 0), with `query` holding the predicate part. join_mask == 0 means a
/// plain single-table request. Either way `fingerprint` is the cache/RNG key
/// (query.Fingerprint() or workload::JoinFingerprint respectively).
struct EstimateRequest {
  workload::Query query;
  uint32_t join_mask = 0;  ///< 0: single-table; else JoinQuery::table_mask.
  uint64_t fingerprint = 0;
  std::promise<ServeResult> promise;
  /// Stamped by util::BatchQueue::Push at admission. Anchors the batch
  /// deadline and feeds the queue-wait observability hooks; callers leave it
  /// alone.
  std::chrono::steady_clock::time_point enqueued_at{};
};

struct ServiceConfig {
  // Micro-batch admission policy.
  size_t max_batch = 64;       ///< Flush when this many requests coalesced.
  uint64_t max_wait_us = 200;  ///< ... or when the oldest waited this long.
  size_t queue_capacity = 1024;  ///< Bounded queue; Push blocks when full.

  // Result cache.
  bool cache_enabled = true;
  ResultCacheConfig cache;
};

/// One published (generation, frozen model) pair. The model is any
/// core::ServableModel; a ShardedServable's per-shard parameter sets publish
/// as one generation-atomic unit.
struct ModelSnapshot {
  /// Starts at 1 for the snapshot the service was constructed with and
  /// strictly increases per publish. Result-cache keys embed it, so
  /// publishing a new snapshot makes stale entries unreachable.
  uint64_t generation = 0;
  std::shared_ptr<const core::ServableModel> model;
};

struct ServiceStats {
  uint64_t requests = 0;        ///< Total Estimate/EstimateAsync calls.
  uint64_t cache_hits = 0;      ///< Answered from the result cache.
  uint64_t inline_requests = 0; ///< Answered inline (pool-worker callers).
  uint64_t batches = 0;         ///< Micro-batches executed.
  uint64_t batched_queries = 0; ///< Model-evaluated queries inside batches.
  uint64_t max_batch_observed = 0;
  uint64_t snapshots_published = 0;  ///< Excludes the initial snapshot.
};

class EstimationService {
 public:
  /// Starts the dispatcher thread over the initial model snapshot
  /// (generation 1). The service shares ownership of the model (any
  /// core::ServableModel — monolithic Uae or ShardedServable).
  EstimationService(std::shared_ptr<const core::ServableModel> initial_model,
                    const ServiceConfig& config = {});
  ~EstimationService();
  UAE_DISALLOW_COPY(EstimationService);

  /// Blocking single-query estimate (cardinality + attribution).
  /// Thread-safe; callable from any thread including global-pool workers
  /// (those are answered inline — see the deadlock note above).
  ServeResult Estimate(const workload::Query& query);
  /// Convenience: just the cardinality.
  double EstimateCard(const workload::Query& query) { return Estimate(query).card; }
  /// Non-blocking: the future resolves when the micro-batch containing the
  /// query completes (immediately for cache hits and inline callers).
  std::future<ServeResult> EstimateAsync(const workload::Query& query);

  // ---- Join sub-plan estimation ---------------------------------------------
  // Join requests from the query optimizer share everything with single-table
  // ones: the same micro-batch queue (concurrent planner threads coalesce
  // into shared batches), the same (fingerprint, generation)-keyed result
  // cache (keyed by workload::JoinFingerprint, so a hot-swap invalidates by
  // construction), and the same snapshot slot — a newly published snapshot
  // starts answering sub-plan estimates transparently.
  // The published model must return SupportsJoinQueries() == true; routing a
  // join request to one that does not is a CHECK failure.

  /// Blocking join sub-plan estimate. Bit-identical to
  /// model->EstimateJoinCard(query) on the answering generation's snapshot,
  /// regardless of batching, caching, or calling thread.
  ServeResult EstimateJoin(const workload::JoinQuery& query);
  /// Convenience: just the cardinality.
  double EstimateJoinCard(const workload::JoinQuery& query) {
    return EstimateJoin(query).card;
  }
  /// Non-blocking join estimate; same resolution rules as EstimateAsync.
  std::future<ServeResult> EstimateJoinAsync(const workload::JoinQuery& query);

  /// Atomically publishes a new model snapshot and evicts the cache entries
  /// of older generations; in-flight batches finish on the snapshot they
  /// started with. Returns the new generation.
  uint64_t PublishSnapshot(std::shared_ptr<const core::ServableModel> model);

  uint64_t CurrentGeneration() const { return slot_.CurrentGeneration(); }
  /// The currently-published snapshot (for direct read-side access).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const {
    return slot_.Current();
  }

  ServiceStats Stats() const;
  ResultCacheStats CacheStats() const { return cache_.Stats(); }
  const ServiceConfig& config() const { return config_; }

  // ---- Load / latency observability ----------------------------------------
  // Instantaneous queue signals plus the queue-wait distribution. This is
  // what a router::LoadProbe reads to decide when the serving path is
  // breaching its latency SLO (router/router.h) — before these hooks the
  // serving layer had request counters but no latency visibility at all.
  /// Requests admitted to the micro-batch queue and not yet dispatched.
  size_t QueueDepth() const { return queue_.Depth(); }
  /// Microseconds the oldest queued request has waited (0 when idle).
  uint64_t OldestQueuedWaitMicros() const { return queue_.OldestWaitMicros(); }
  /// Distribution of Push -> dispatch queue waits over batched requests.
  LatencySnapshot QueueLatency() const { return queue_latency_.Snapshot(); }

  // Per-generation accounting: every response is attributed to exactly one
  // snapshot generation (the one that produced — or cached — its value), so
  // summing these counters over all generations equals Stats().requests.
  // This is what the online adaptation layer reads to see how much traffic
  // each published snapshot actually answered.
  /// (generation, answered) pairs sorted by generation.
  std::vector<std::pair<uint64_t, uint64_t>> AnsweredByGeneration() const;
  /// Responses attributed to one generation (0 if it never answered).
  uint64_t AnsweredForGeneration(uint64_t generation) const;

 private:
  /// Shared admission path for single-table and join requests: cache fast
  /// path, inline answering for pool workers, then the micro-batch queue.
  /// `request.fingerprint` and `request.join_mask` must already be set.
  std::future<ServeResult> Submit(EstimateRequest request);
  /// Answers one request synchronously on the calling thread (cache-aware);
  /// dispatches on request.join_mask.
  ServeResult EstimateInline(const EstimateRequest& request);
  /// Attributes `count` responses to `generation`.
  void CountAnswered(uint64_t generation, uint64_t count);
  /// Dispatcher: drains micro-batches until the queue closes.
  void DispatchLoop();
  void RunBatch(std::vector<EstimateRequest> batch);

  ServiceConfig config_;
  util::VersionedSlot<ModelSnapshot> slot_;
  ResultCache cache_;
  util::BatchQueue<EstimateRequest> queue_;
  std::thread dispatcher_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> inline_requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_queries_{0};
  std::atomic<uint64_t> max_batch_observed_{0};
  std::atomic<uint64_t> snapshots_published_{0};
  LatencyHistogram queue_latency_;  ///< Push -> dispatch wait per request.

  /// Per-generation response counters, striped by caller thread so the
  /// cache-hit fast path (which bumps once per request) never serializes
  /// clients on one lock; batch responses additionally amortize their bump
  /// over the whole batch. Readers merge all stripes.
  struct GenerationStripe {
    mutable std::mutex mu;
    std::map<uint64_t, uint64_t> answered;
  };
  static constexpr size_t kGenerationStripes = 8;  ///< Power of two.
  mutable std::array<GenerationStripe, kGenerationStripes> generation_stripes_;
};

}  // namespace uae::serve
