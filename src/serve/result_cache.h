// Sharded LRU cache of estimation results.
//
// Keys are (query fingerprint, snapshot generation) pairs — the same
// fingerprint the estimator derives its per-query RNG from, so a cached value
// is exactly the double the model would recompute. Tying the generation into
// the key makes a snapshot swap an implicit wholesale invalidation: entries
// of older generations can never be served again, and the service drops them
// on publish via EvictBelowGeneration.
//
// Sharding bounds contention: each shard has its own mutex, hash map and LRU
// list, and a fingerprint always maps to the same shard.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/common.h"

namespace uae::serve {

struct ResultCacheConfig {
  size_t capacity = 4096;  ///< Total entries across all shards (>= shards).
  size_t shards = 8;       ///< Rounded up to a power of two.
};

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Capacity + generation evictions.
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheConfig& config);
  UAE_DISALLOW_COPY(ResultCache);

  /// Returns the cached estimate for (fingerprint, generation) and marks the
  /// entry most-recently-used, or nullopt on miss.
  std::optional<double> Lookup(uint64_t fingerprint, uint64_t generation);

  /// Inserts (or refreshes) an entry, evicting the shard's LRU tail at
  /// capacity. Values are pure functions of (model, query), so concurrent
  /// inserts of the same key always carry the same value.
  void Insert(uint64_t fingerprint, uint64_t generation, double value);

  /// Drops every entry with generation < `generation` (eager reclamation
  /// after a snapshot swap; correctness never depends on this being called).
  void EvictBelowGeneration(uint64_t generation);

  size_t Size() const;
  ResultCacheStats Stats() const;

 private:
  using Key = std::pair<uint64_t, uint64_t>;  ///< (fingerprint, generation).
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    double value = 0.0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< Front = most recently used.
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
  };

  Shard& ShardFor(uint64_t fingerprint);

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  size_t shard_mask_;
};

}  // namespace uae::serve
