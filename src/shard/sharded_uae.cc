#include "shard/sharded_uae.h"

#include "util/threadpool.h"

namespace uae::shard {

ShardedUae::ShardedUae(const data::Table& table, const ShardedUaeConfig& config)
    : ShardedServable(
          table,
          ShardedServableConfig{config.partition, config.prune,
                                config.base.seed},
          [base = config.base](const data::Table& shard_table, int,
                               uint64_t shard_seed) {
            core::UaeConfig shard_config = base;
            shard_config.seed = shard_seed;
            return std::make_shared<core::Uae>(shard_table, shard_config);
          }) {}

void ShardedUae::TrainDataEpochs(int epochs) {
  util::ParallelFor(
      0, static_cast<size_t>(num_shards()),
      [&](size_t lo, size_t hi) {
        for (size_t s = lo; s < hi; ++s) {
          // The constructor's factory builds only core::Uae shard models.
          static_cast<core::Uae&>(mutable_shard_model(static_cast<int>(s)))
              .TrainDataEpochs(epochs);
        }
      },
      /*min_parallel_size=*/1);
}

}  // namespace uae::shard
