// Persistent per-subplan cardinality memo — the AQO pattern (adaptive query
// optimization): every sub-plan the optimizer costs is identified by a
// canonical feature-subspace hash (fss) of its (relation set, join clauses,
// local predicates); executed plans report the TRUE cardinalities of their
// prefix sub-plans back through the online feedback loop, and a background
// refresher folds them into the memo OFF the query path. On the next planning
// of the same sub-plan the memo short-circuits the model entirely — the
// optimizer plans with observed truth where it exists and learned estimates
// where it does not. A sub-plan serves from its first observation; later
// ones fold into a log-space EMA of weight 0.5.
//
// Thread-safety: SubplanMemo is fully thread-safe (one mutex; all operations
// are O(1)-ish map touches, never model evaluations). The refresher polls on
// a util::BackgroundLoop; Start/Stop are idempotent and the destructor stops
// it.
//
// Persistence: Save/Load use the same raw-stream style as nn/serialize
// ("UAEM" magic, version, count, fixed-width little-endian fields). Cards are
// stored as raw IEEE-754 bit patterns and entries are written sorted by fss,
// so save -> load -> save reproduces the file byte for byte.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/imdb_star.h"
#include "online/drift.h"
#include "online/feedback.h"
#include "util/background_loop.h"
#include "util/status.h"
#include "workload/join_workload.h"

namespace uae::optimizer {

/// Canonical hash of a sub-plan: the joined-table set, the join clauses it
/// implies (star schema: dimension t joins the fact table on the title key),
/// and the local predicates of the in-set tables, folded in ascending
/// (table, column) order. Because workload::Query stores one intersected
/// constraint per column (and kIn code lists are kept sorted), the hash is
/// invariant to the order predicates were added in — semantically equal
/// sub-plans collide by construction. Constraints on columns of tables
/// OUTSIDE subplan.table_mask are ignored, so a restricted and an
/// unrestricted spelling of the same sub-plan also agree.
uint64_t SubplanFss(const data::JoinUniverse& uni,
                    const workload::JoinQuery& subplan);

struct SubplanMemoStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;          ///< Lookups answered (nobs >= 1).
  uint64_t observations = 0;  ///< Observe() calls folded in.
};

/// One memoized sub-plan (exposed for tests and persistence).
struct SubplanMemoEntry {
  uint64_t fss = 0;
  double log_card = 0.0;  ///< EMA of log(true cardinality), >= 0.
  uint64_t nobs = 0;      ///< Observations folded into log_card.
};

class SubplanMemo {
 public:
  SubplanMemo() = default;
  UAE_DISALLOW_COPY(SubplanMemo);

  /// Memoized cardinality for the sub-plan hash, or nullopt until the memo
  /// has observed an execution of it. Thread-safe.
  std::optional<double> Lookup(uint64_t fss) const;

  /// Folds one observed true cardinality into the sub-plan's entry as a
  /// log-space EMA that halves the weight of history each time (AQO-style
  /// recency bias):
  ///   log_card <- 0.5 * log_card + 0.5 * log(max(obs, 1)).
  /// Thread-safe.
  void Observe(uint64_t fss, double observed_card);

  size_t Size() const;
  SubplanMemoStats Stats() const;
  /// Entries sorted by fss (the persistence order).
  std::vector<SubplanMemoEntry> Entries() const;

  /// Writes the memo ("UAEM" format). Entries are sorted and cards stored as
  /// raw bit patterns, so the file is a deterministic function of the state.
  util::Status Save(const std::string& path) const;
  /// Replaces the contents with the file's entries (stats are kept).
  util::Status Load(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, SubplanMemoEntry> entries_;
  mutable SubplanMemoStats stats_;
};

/// Reports the executed plan's per-step intermediate sizes as join feedback:
/// for every >= 2-table prefix of `order`, the prefix's intermediate result
/// size IS the true cardinality of that sub-plan (left-deep plans over the
/// star schema keep the fact table in every such prefix), so each becomes a
/// FeedbackEntry with join_mask = prefix mask and query = the predicate
/// restricted to it. `step_rows` comes from ExecutionResult::step_rows;
/// `generation` attributes the feedback to the serving snapshot that planned
/// the query. Returns the number of entries added.
size_t RecordPlanFeedback(const data::JoinUniverse& uni,
                          const workload::JoinQuery& query,
                          const std::vector<int>& order,
                          const std::vector<double>& step_rows,
                          uint64_t generation,
                          online::FeedbackCollector* collector);

/// Moves executed-plan feedback from a FeedbackCollector into a SubplanMemo —
/// the off-query-path half of the loop. RefreshOnce() drains the collector:
/// join entries (join_mask != 0) are folded into the memo (and, when a
/// DriftMonitor is attached and the entry carries the estimate it was planned
/// with, their q-errors feed per-generation drift tracking); single-table
/// entries are forwarded to `passthrough` (the adaptation controller's
/// collector) or dropped when none is given. Start() runs RefreshOnce every
/// 50 ms on a util::BackgroundLoop so planning threads never pay for memo
/// maintenance.
class SubplanMemoRefresher {
 public:
  SubplanMemoRefresher(const data::JoinUniverse& uni, SubplanMemo* memo,
                       online::FeedbackCollector* collector,
                       online::DriftMonitor* drift = nullptr,
                       online::FeedbackCollector* passthrough = nullptr);
  ~SubplanMemoRefresher();
  UAE_DISALLOW_COPY(SubplanMemoRefresher);

  /// Drains the collector once; returns how many join entries were folded in.
  size_t RefreshOnce();

  /// Starts/stops the background poll (idempotent). Stopping a running
  /// refresher ends with one more RefreshOnce, so feedback added before
  /// Stop() is folded in.
  void Start() { loop_.Start(); }
  void Stop();

 private:
  const data::JoinUniverse& uni_;
  SubplanMemo* const memo_;
  online::FeedbackCollector* const collector_;
  online::DriftMonitor* const drift_;
  online::FeedbackCollector* const passthrough_;

  /// Declared last, so it is destroyed first: the thread is joined before
  /// any member its tick touches goes away.
  util::BackgroundLoop loop_;
};

}  // namespace uae::optimizer
