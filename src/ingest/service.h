// IngestService — the streaming append path: a bounded multi-producer queue
// in front of a single apply thread that encodes rows, appends them to the
// live table's delta region, routes them to per-shard DeltaBuffers, and
// compacts the delta into the base region when it grows past a threshold.
//
// Why a single apply thread: the data-layer delta region is single-writer by
// design (lock-free readers synchronize on one published row count). The
// queue gives producers the multi-producer surface — it is a
// util::BatchQueue, the estimation service's queue type, so batch admission
// and backpressure are the same — while keeping the actual mutation serial
// and therefore cheap.
//
// Locking: appends never block readers. The ONLY reader-disturbing operation
// is compaction (Table::FoldDelta reallocates the base code vectors), so the
// service exposes PinTable(): scans of live rows (refresh gathers, bench
// labeling) hold the shared side; the compactor takes the exclusive side.
// Serving traffic never touches the live table (models own materialized
// shard snapshots) and needs no pin.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "data/table.h"
#include "ingest/delta_buffer.h"
#include "shard/partitioner.h"
#include "util/batch_queue.h"
#include "util/status.h"

namespace uae::ingest {

struct IngestConfig {
  size_t queue_capacity = 4096;  ///< Producers block (backpressure) above this.
  /// Rows admitted per apply batch. A short batch applies once its oldest
  /// row has waited 500 µs.
  size_t max_batch = 256;
  /// Fold the delta region into the base once it holds this many rows
  /// (0 disables auto-compaction; CompactNow() is always available).
  size_t compact_min_delta = 16384;
};

struct IngestStats {
  uint64_t rows_appended = 0;  ///< Rows applied to the table.
  uint64_t rows_rejected = 0;  ///< Pre-encoded rows that failed validation.
  uint64_t unseen_values = 0;  ///< Overflow dictionary entries created.
  uint64_t overflow_rows = 0;  ///< Applied rows carrying >=1 overflow code.
  uint64_t batches = 0;        ///< Apply batches executed.
  uint64_t compactions = 0;    ///< FoldDelta calls.
  uint64_t folded_rows = 0;    ///< Rows moved base-ward by compaction.
};

class IngestService {
 public:
  /// `table` is the live table (the service becomes its single delta writer);
  /// `partitioner` is the shard map the serving models were built on. Both
  /// must outlive the service. Starts the apply thread.
  IngestService(data::Table* table,
                const shard::HorizontalPartitioner* partitioner,
                const IngestConfig& config = {});
  ~IngestService();
  UAE_DISALLOW_COPY(IngestService);

  // ---- Producers (any thread) ----------------------------------------------
  /// Enqueues a row of values (encoded on the apply thread; unseen values get
  /// stable overflow codes). Blocks while the queue is full; returns false
  /// once Close() has been called.
  bool Append(std::vector<data::Value> values);
  /// Enqueues a pre-encoded row. Codes are validated at apply time against
  /// the then-current total domain; invalid rows are dropped and counted in
  /// stats().rows_rejected.
  bool AppendCodes(std::vector<int32_t> codes);

  /// Blocks until every row enqueued before the call has been applied.
  void Flush();
  /// Unblocks producers and stops the apply thread after draining the queue.
  /// Idempotent; the destructor calls it.
  void Close();

  // ---- Compaction ----------------------------------------------------------
  /// Folds the delta region into the base region now (exclusive with pinned
  /// readers). Returns rows folded.
  size_t CompactNow();

  /// Pins the live table against compaction: hold the returned lock while
  /// scanning rows up to a num_rows() observed under it. Appends continue
  /// concurrently (they never disturb readers).
  std::shared_lock<std::shared_mutex> PinTable() const {
    return std::shared_lock<std::shared_mutex>(table_mu_);
  }

  // ---- Introspection -------------------------------------------------------
  const data::Table& table() const { return *table_; }
  int num_shards() const { return partitioner_->num_shards(); }
  const DeltaBuffer& shard_buffer(int s) const {
    return *buffers_[static_cast<size_t>(s)];
  }
  /// Refresh-side handle (MarkRefreshed is the refresh thread's write).
  DeltaBuffer& mutable_shard_buffer(int s) {
    return *buffers_[static_cast<size_t>(s)];
  }
  /// Base rows of shard s at partition time (staleness ratios divide by this).
  size_t shard_base_rows(int s) const {
    return partitioner_->shard(s).rows;
  }
  IngestStats stats() const;
  size_t QueueDepth() const;

 private:
  struct PendingRow {
    std::vector<data::Value> values;  ///< Used when !encoded.
    std::vector<int32_t> codes;       ///< Used when encoded.
    bool encoded = false;
    /// Stamped by util::BatchQueue::Push at admission.
    std::chrono::steady_clock::time_point enqueued_at{};
  };

  void ApplyLoop();
  void ApplyBatch(std::vector<PendingRow>& batch);
  void MaybeCompact();
  size_t CompactLocked();  ///< Caller holds writer_mu_.

  data::Table* table_;
  const shard::HorizontalPartitioner* partitioner_;
  const IngestConfig config_;
  std::vector<std::unique_ptr<DeltaBuffer>> buffers_;

  /// Serializes table mutation: the apply thread holds it across each batch,
  /// and external CompactNow() takes it so a fold never runs concurrently
  /// with the single writer's appends. Readers never touch it. Lock order:
  /// writer_mu_ before table_mu_.
  std::mutex writer_mu_;
  /// Serializes compaction (exclusive) against live-row scans (shared).
  mutable std::shared_mutex table_mu_;

  util::BatchQueue<PendingRow> queue_;

  std::mutex applied_mu_;
  std::condition_variable flushed_cv_;  ///< Flush waits for applied_rows_.
  /// Rows the apply thread has taken through ApplyBatch (rejected ones
  /// included). The queue is FIFO with one consumer, so once this reaches
  /// queue_.Admitted() as read at some instant, every row admitted by then
  /// has been applied.
  uint64_t applied_rows_ = 0;

  mutable std::mutex stats_mu_;
  IngestStats stats_;

  std::thread apply_thread_;
};

}  // namespace uae::ingest
