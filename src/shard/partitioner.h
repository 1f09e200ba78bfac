// HorizontalPartitioner — deterministic assignment of a table's rows to N
// shards keyed on one partition column, in the spirit of the partition-wise
// models of the SPN line of work (PAPERS.md: "A Unified Model for Cardinality
// Estimation ... via Sum-Product Networks"): decompose the data into regions,
// fit a local model per region.
//
// Equi-depth ranges over the partition column's (order-preserving) code
// space: shard k owns the contiguous code interval [code_lo, code_hi],
// boundaries chosen so row counts balance. Range/equality/IN predicates on the
// partition column prune to the overlapping shards.
//
// The assignment is a pure function of (column contents, config): the same
// table and config always produce identical shards, so per-shard models are
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "workload/query.h"

namespace uae::shard {

struct PartitionConfig {
  int num_shards = 4;      ///< Clamped to the partition column's domain.
  int partition_col = -1;  ///< -1 => the table's largest-domain column.
};

/// Where one shard lives in the partition column's code space.
struct ShardDescriptor {
  int shard_id = 0;
  int32_t code_lo = 0;  ///< Inclusive code interval [code_lo, code_hi].
  int32_t code_hi = -1;
  size_t rows = 0;      ///< Rows assigned to this shard.
};

class HorizontalPartitioner {
 public:
  /// Computes the full code->shard and row->shard assignment. The table is
  /// only read during construction; the partitioner keeps no reference to it.
  HorizontalPartitioner(const data::Table& table, const PartitionConfig& config);

  /// The resolved config: partition_col substituted, num_shards clamped.
  const PartitionConfig& config() const { return config_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int partition_col() const { return config_.partition_col; }
  const std::vector<ShardDescriptor>& shards() const { return shards_; }
  const ShardDescriptor& shard(int s) const {
    return shards_[static_cast<size_t>(s)];
  }

  /// Shard owning a partition-column code (codes outside [0, domain) are a
  /// programmer error).
  int ShardForCode(int32_t code) const {
    return code_to_shard_[static_cast<size_t>(code)];
  }

  /// Shard for an ingested row's partition-column code, which may be an
  /// overflow code above the frozen domain (the shard map only covers frozen
  /// codes). The row goes where its *value* would sort — the shard owning
  /// LowerBoundCode(value), clamped — so range locality survives streaming.
  /// `column` must be the live partition column (for the value lookup).
  int ShardForIngestCode(int32_t code, const data::Column& column) const;

  /// Row indices assigned to shard `s`, ascending (original row order).
  const std::vector<size_t>& RowsForShard(int s) const {
    return shard_rows_[static_cast<size_t>(s)];
  }

  /// Materializes the shard tables from the table this partitioner was built
  /// on (checked by row count). Row order is preserved within a shard and
  /// dictionaries are shared with the source (data::Table::Gather), so a
  /// query compiled against the source table is directly valid against every
  /// shard. With num_shards == 1 the single shard is a row-identical copy of
  /// the source — the basis of the N=1 == monolithic bitwise guarantee.
  std::vector<data::Table> Materialize(const data::Table& table,
                                       const std::string& name_prefix) const;

  /// Pruned fan-out: the shards that could contain rows matching `query`,
  /// ascending. A shard is omitted only when the query's constraint on the
  /// partition column is *provably* disjoint from the shard's code set, so
  /// summing per-shard cardinalities over the returned shards is exact: the
  /// skipped shards contribute zero true rows. No constraint on the
  /// partition column => all shards.
  std::vector<int> CandidateShards(const workload::Query& query) const;

  /// Whether shard `s` is in CandidateShards(query).
  bool MayMatch(const workload::Query& query, int s) const;

 private:
  void BuildRanges(const data::Column& col);

  PartitionConfig config_;
  int32_t domain_ = 0;
  std::vector<ShardDescriptor> shards_;
  std::vector<int> code_to_shard_;            ///< One entry per code.
  std::vector<std::vector<size_t>> shard_rows_;
};

/// Per-shard model seed: shard 0 keeps the base seed — so a 1-shard deployment
/// is bit-identical to the monolithic model it replaces — and later shards mix
/// (seed, shard_id) through SplitMix64 for independent streams.
uint64_t MixShardSeed(uint64_t base_seed, int shard_id);

}  // namespace uae::shard
