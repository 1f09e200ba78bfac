// ServableModel — the one estimator interface: the contract between an
// estimation model and everything that evaluates or deploys it (the §5 bench
// tables, serve/ snapshots, online/ adaptation, the router). A snapshot is
// any immutable object that can answer cardinality queries; a candidate for
// hot-swap is any mutable clone that can fine-tune on labeled feedback.
//
// Implementations: the monolithic core::Uae (one autoregressive model over
// one table, the paper's setting), estimators::SpnServable (the query-driven
// SPN backend), shard::ShardedServable (one factory-built servable per
// horizontal partition with pruned fan-out), router::HybridRouter (a
// servable fronting a zoo of backends), ingest::DeltaAwareModel (a model
// plus its overflow tail), and the §5 baselines under estimators/. The
// baselines train in their constructors or Train methods and are read-only
// here: they keep the FineTune default (returns 0) and clone by copy.
// The serving and adaptation layers are written against this interface so
// any deployment hot-swaps and self-repairs the same way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "workload/query.h"

namespace uae::data {
class Table;  // data/table.h; kept out of this header's include graph.
}  // namespace uae::data

namespace uae::workload {
struct JoinQuery;  // join_workload.h; kept out of this header's include graph.
}  // namespace uae::workload

namespace uae::core {

/// How FineTune() should spend its budget (mirrors the knobs of
/// online::AdaptationConfig; see §4.5 of the paper). The step size is not
/// part of it: each backend keeps its own (the UAE's optimizer schedule, the
/// SPN's fixed multiplicative rate).
struct FineTuneSpec {
  /// Supervised DPS steps on the feedback workload (UAE-Q refinement).
  int query_steps = 80;
  /// When > 0, hybrid L_data + lambda * L_query epochs instead — slower but
  /// anchored to the data distribution (less forgetting).
  int hybrid_epochs = 0;
};

class ServableModel {
 public:
  virtual ~ServableModel() = default;

  /// Estimated cardinality of a single-table query. Must be a pure function
  /// of (model, query): independent of call order, batch composition, and
  /// thread count, so served results are reproducible bitwise.
  virtual double EstimateCard(const workload::Query& query) const = 0;
  /// Batched estimation; element i is bit-identical to EstimateCard(queries[i]).
  /// The default loops EstimateCard; models with a batched or parallel hot
  /// path override it.
  virtual std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const;

  // ---- Join estimation (optional capability) -------------------------------
  // A model constructed over a data::JoinUniverse can answer sub-plan
  // cardinalities for the join optimizer. The serving layer routes join
  // requests through these exactly like single-table ones (micro-batched,
  // cached per generation), so implementations must keep the same purity
  // contract: EstimateJoinCard is a pure function of (model, join query),
  // seeded from workload::JoinFingerprint.

  /// Whether EstimateJoinCard*/ may be called. Defaults to false; the serving
  /// layer CHECK-fails a join request against a model that returns false.
  virtual bool SupportsJoinQueries() const { return false; }
  /// Estimated cardinality of a join sub-plan. CHECK-fails unless
  /// SupportsJoinQueries(); must be bitwise batch/thread invariant.
  virtual double EstimateJoinCard(const workload::JoinQuery& query) const;
  /// Batched variant; element i is bit-identical to EstimateJoinCard(queries[i]).
  virtual std::vector<double> EstimateJoinCards(
      std::span<const workload::JoinQuery> queries) const;

  // ---- Data ingest (optional capability) -----------------------------------
  /// Appends `delta`'s rows to the model's training data and runs `epochs`
  /// unsupervised epochs on the new rows only (§4.5 incremental data
  /// update); num_rows() grows by delta.num_rows(). CHECK-fails unless the
  /// backend learns from data (core::Uae does).
  virtual void IngestDataRows(const data::Table& delta, int epochs);

  virtual size_t SizeBytes() const = 0;
  /// Rows of the underlying table (feedback selectivities derive from this).
  virtual size_t num_rows() const = 0;
  /// The model's construction seed (adaptation controllers mix it into their
  /// train/holdout split seeds); 0 for a model built without one.
  virtual uint64_t seed() const { return 0; }

  /// Independent deep copy with bit-identical parameters; fine-tuning the
  /// clone leaves this model untouched (the hot-swap publish path).
  virtual std::shared_ptr<ServableModel> CloneServable() const = 0;

  /// Fine-tunes on a labeled feedback workload and returns how many of its
  /// queries were actually trained on. Implementations route the work: a
  /// monolithic UAE trains on the whole workload (returns workload.size());
  /// a sharded model refits only the shards the workload's queries target —
  /// queries spanning shards are unattributable and dropped, so the return
  /// value can be less than workload.size(), down to 0 when nothing routed.
  /// Callers deciding whether to publish the result should treat 0 as "the
  /// clone is still bit-identical to its source". The default is the
  /// read-only contract: nothing is trained and 0 is returned.
  virtual size_t FineTune(const workload::Workload& /*workload*/,
                          const FineTuneSpec& /*spec*/) {
    return 0;
  }
};

}  // namespace uae::core
