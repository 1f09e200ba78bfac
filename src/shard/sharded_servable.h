// ShardedServable — the sharded deployment: one factory-built
// core::ServableModel per horizontal partition, presented as a single
// core::ServableModel. The scale lever past the paper's one-table/one-model
// setting, for any backend (shard/sharded_uae.h holds the UAE preset;
// per-shard SPNs use the same type with an SPN factory):
//
//  * EstimateCards answers a query as the SUM of per-shard cardinality
//    estimates — exact decomposition, since shards partition the rows. The
//    shards with work answer side by side on the global pool.
//  * Pruned fan-out: when the query constrains the partition column, shards
//    whose code set is provably disjoint are skipped entirely (they
//    contribute zero true rows), so partition-targeted queries touch O(1)
//    models instead of N — and lose the spurious mass N-1 off-target models
//    would have contributed.
//  * Per-shard fine-tuning (FineTune): feedback queries that prune to exactly
//    one shard are routed to that shard's model — drift localized to one
//    partition refits one model, leaving the other shards' parameters
//    bit-identical. Queries spanning shards are skipped (their global label
//    cannot be attributed to a single shard).
//  * Per-shard data ingest (IngestShardRows) for backends with the
//    ServableModel::IngestDataRows capability — the streaming-refresh path.
//
// Determinism: shard k's model seed is MixShardSeed(base seed, k); shard 0
// keeps the base seed, so a one-shard deployment is bit-identical to the
// monolithic model it replaces (same table rows, same dictionaries, same
// training RNG stream, same estimates). Shards build, answer and fine-tune
// in parallel, but per-shard answers are always added in ascending shard
// order, so no result depends on the thread count.
//
// The shard tables are materialized once and shared (shared_ptr) by every
// clone, so a backend that keeps a table pointer stays valid across the
// clone → fine-tune → publish cycle. Of the shipped backends only the UAE
// keeps one; the SPN reads its shard table only while it builds.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/servable.h"
#include "data/table.h"
#include "shard/partitioner.h"

namespace uae::shard {

/// Builds the model for one shard. `shard_table` outlives the returned model
/// and all of its clones (owned by the ShardedServable's shared table
/// vector); `shard_seed` is MixShardSeed(base, shard_id), so shard 0 keeps
/// the base seed. The constructor calls it concurrently for different
/// shards, from the constructing thread and global-pool workers, so any
/// state it shares across calls must be safe to use from several threads.
using ServableFactory = std::function<std::shared_ptr<core::ServableModel>(
    const data::Table& shard_table, int shard_id, uint64_t shard_seed)>;

struct ShardedServableConfig {
  PartitionConfig partition;
  bool prune = true;        ///< Per-query shard pruning via CandidateShards.
  uint64_t base_seed = 31;  ///< Mixed per shard; reported by seed().
};

class ShardedServable : public core::ServableModel {
 public:
  /// Partitions `table` and builds one model per shard with `factory`, all
  /// shards in parallel (see ServableFactory). The table is only read during
  /// construction: shard tables copy the codes and share the dictionaries,
  /// so the source may be destroyed afterwards.
  ShardedServable(const data::Table& table, const ShardedServableConfig& config,
                  const ServableFactory& factory);

  /// Pruned fan-out sum: skipped shards provably contribute zero true rows.
  /// Asks the candidate shards one after another on the calling thread: the
  /// serial reference the batched path is checked against.
  double EstimateCard(const workload::Query& query) const override;
  /// Groups queries per shard so each shard model answers one batched call,
  /// the shards that have work running concurrently (util::ParallelFor).
  /// Their answers are added in ascending shard order — the summation order
  /// of EstimateCard — so element i is bit-identical to
  /// EstimateCard(queries[i]) for any batch size or thread count.
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return num_rows_; }
  uint64_t seed() const override { return config_.base_seed; }
  /// Deep copy: every shard model is CloneServable()'d; partitioner and
  /// shard tables are shared (immutable).
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  /// Typed clone (same semantics as CloneServable).
  std::unique_ptr<ShardedServable> Clone() const;
  /// Routes the workload per shard (RouteWorkload) and fine-tunes only the
  /// shards that received feedback, in parallel; the other shards'
  /// parameters are untouched (bit-identical). Returns the summed per-shard
  /// used counts — 0 when every query spanned shards, in which case this
  /// model is still bit-identical and publishing it would be a pointless
  /// cache flush.
  size_t FineTune(const workload::Workload& workload,
                  const core::FineTuneSpec& spec) override;

  /// Incremental data refresh for ONE shard (§4.5 applied per partition):
  /// the shard model's IngestDataRows, which CHECK-fails for backends
  /// without data ingest. Every code in `delta` must lie inside the frozen
  /// dictionaries — overflow codes never enter a model (the ingest layer
  /// accounts for them with an exact tail, see ingest/delta_model.h). Other
  /// shards are untouched (bit-identical parameters); num_rows() grows by
  /// delta.num_rows().
  void IngestShardRows(int s, const data::Table& delta, int epochs);

  /// Splits a feedback workload by shard: queries pruning to exactly one
  /// shard land in that shard's slice, with selectivity re-derived from the
  /// shard's rows; spanning queries are dropped. Returns the number of
  /// dropped (unattributable) queries.
  size_t RouteWorkload(const workload::Workload& workload,
                       std::vector<workload::Workload>* per_shard) const;

  int num_shards() const { return static_cast<int>(models_.size()); }
  const core::ServableModel& shard_model(int s) const {
    return *models_[static_cast<size_t>(s)];
  }
  const HorizontalPartitioner& partitioner() const { return *partitioner_; }
  /// Runtime pruning toggle (same trained models, different fan-out); the
  /// shard_scale bench uses it to measure pruned vs unpruned throughput.
  void set_prune(bool prune) { config_.prune = prune; }

 protected:
  /// For presets that train their shard models in place.
  core::ServableModel& mutable_shard_model(int s) {
    return *models_[static_cast<size_t>(s)];
  }

 private:
  ShardedServable(const ShardedServable& other);  ///< Clone plumbing.

  ShardedServableConfig config_;
  std::shared_ptr<const HorizontalPartitioner> partitioner_;
  std::shared_ptr<const std::vector<data::Table>> shard_tables_;
  std::vector<std::shared_ptr<core::ServableModel>> models_;
  size_t num_rows_ = 0;
};

}  // namespace uae::shard
