// FeedbackCollector — the entry point of the online adaptation loop (§4.5
// deployed continuously): client threads (or the plan executor, once a query
// has actually run) report the true cardinality observed for a served
// estimate, and the collector buffers these labeled (query, true_card) pairs
// until the AdaptationController drains them into a fine-tuning workload.
//
// The buffer is a bounded, concurrent sliding window: a ring that overwrites
// the oldest entry, so it always holds the most recent `capacity`
// observations (the newest traffic IS the shifted workload). Its contents are
// a deterministic function of the arrival order.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/common.h"
#include "workload/query.h"

namespace uae::online {

/// One observed (served estimate, ground truth) pair.
///
/// Join sub-plan feedback from the plan executor rides the same buffer:
/// `join_mask` is the joined-table bitset of the sub-plan (never 0 for
/// joins — it always contains the fact table), with `query` holding the
/// predicate restricted to those tables. join_mask == 0 marks ordinary
/// single-table feedback. Consumers that only understand single-table
/// entries (SnapshotWorkload/ToWorkload) skip join entries; the subplan
/// memo refresher (optimizer/subplan_memo.h) consumes only join entries.
struct FeedbackEntry {
  workload::Query query;
  double true_card = 0.0;       ///< Observed by actually executing the query.
  double estimated_card = 0.0;  ///< What the service answered at the time.
  uint64_t generation = 0;      ///< Snapshot generation that produced it.
  uint32_t join_mask = 0;       ///< 0: single-table; else the sub-plan tables.
};

struct FeedbackConfig {
  size_t capacity = 4096;  ///< The newest entries kept.
};

class FeedbackCollector {
 public:
  explicit FeedbackCollector(const FeedbackConfig& config = {});
  UAE_DISALLOW_COPY(FeedbackCollector);

  /// Thread-safe append; a full buffer overwrites its oldest entry.
  void Add(FeedbackEntry entry);

  /// Entries currently buffered (<= capacity).
  size_t Size() const;
  /// Entries ever offered to Add(), including ones since evicted.
  uint64_t TotalObserved() const;

  /// Copy of the buffer in arrival order (oldest first).
  std::vector<FeedbackEntry> Snapshot() const;
  /// Moves the buffer out and clears it (arrival order).
  std::vector<FeedbackEntry> Drain();

  /// The buffered feedback as a labeled workload; selectivities are derived
  /// from `num_rows` (the served table's row count).
  workload::Workload SnapshotWorkload(size_t num_rows) const;

 private:
  /// Buffer contents in arrival order; caller holds mu_.
  std::vector<FeedbackEntry> OrderedLocked() const;

  const FeedbackConfig config_;
  mutable std::mutex mu_;
  std::vector<FeedbackEntry> buffer_;
  size_t ring_next_ = 0;   ///< Next slot to overwrite once full.
  uint64_t observed_ = 0;  ///< Lifetime arrivals (reporting).
};

/// Labeled workload from parallel (entry) arrays — the buffer -> Workload
/// conversion used by the controller (see workload::MakeLabeledWorkload).
workload::Workload ToWorkload(const std::vector<FeedbackEntry>& entries,
                              size_t num_rows);

}  // namespace uae::online
