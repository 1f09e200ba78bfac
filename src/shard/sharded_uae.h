// ShardedUae — the UAE preset of shard::ShardedServable: one core::Uae per
// horizontal partition, shard s seeded with MixShardSeed(base.seed, s), plus
// parallel data training across the shards. Everything else (pruned fan-out,
// feedback routing, clones, per-shard fine-tune and data ingest) is the
// generic ShardedServable; clones are plain ShardedServables.
#pragma once

#include "core/uae.h"
#include "data/table.h"
#include "shard/partitioner.h"
#include "shard/sharded_servable.h"

namespace uae::shard {

struct ShardedUaeConfig {
  PartitionConfig partition;
  /// Shared per-shard model config; each shard's seed is derived from
  /// (base.seed, shard_id) via MixShardSeed.
  core::UaeConfig base;
  /// Skip provably-disjoint shards at estimation time. Off = full fan-out
  /// (every shard evaluated for every query); the bench harness uses this to
  /// measure what pruning buys.
  bool prune = true;
};

class ShardedUae : public ShardedServable {
 public:
  /// Partitions `table` and builds one untrained Uae per shard; seed()
  /// reports config.base.seed.
  ShardedUae(const data::Table& table, const ShardedUaeConfig& config);

  /// Unsupervised epochs on every shard, shards fanned across the global
  /// pool. Equivalent to calling TrainDataEpochs on each shard model.
  void TrainDataEpochs(int epochs);
};

}  // namespace uae::shard
