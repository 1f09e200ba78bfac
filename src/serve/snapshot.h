// Hot-swappable model snapshots for the estimation service.
//
// A ModelSnapshot is an immutable (generation, frozen model) pair; the model
// is any core::ServableModel — the monolithic Uae or a ShardedServable, whose
// snapshot is a vector of per-shard parameter sets published as one
// generation-atomic unit. The SnapshotSlot holds the currently-published
// snapshot behind an atomic std::shared_ptr: readers grab a reference with
// Current() and keep the model alive for the duration of their batch, while a
// background trainer publishes replacements with Publish() — no locks, no
// torn reads, and in-flight estimates keep running against the snapshot they
// started with.
//
// Generation semantics (the contract every layer above relies on): each
// publish allocates a strictly increasing generation; every served result is
// attributed to exactly one generation; and all caches key on (fingerprint,
// generation), so a hot-swap can never serve a stale value — it only makes
// old entries unreachable. Within one generation, estimates are bitwise
// deterministic (pure functions of the snapshot's model and the query); see
// docs/DETERMINISM.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/servable.h"

// ThreadSanitizer cannot see through libstdc++'s lock-free _Sp_atomic (the
// spinlock bit lives inside the control word, so TSan misses its
// acquire/release pairing and reports false races). TSan builds swap in a
// mutex-guarded slot with identical semantics; everything above the slot is
// sanitized unchanged.
#if defined(__SANITIZE_THREAD__)
#define UAE_SNAPSHOT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UAE_SNAPSHOT_TSAN 1
#endif
#endif

namespace uae::serve {

struct ModelSnapshot {
  /// Monotonically increasing publication counter, starting at 1 for the
  /// snapshot the service was constructed with. Result-cache keys embed this,
  /// so publishing a new snapshot implicitly invalidates stale entries.
  uint64_t generation = 0;
  std::shared_ptr<const core::ServableModel> model;
};

class SnapshotSlot {
 public:
  /// Installs the initial snapshot as generation 1.
  explicit SnapshotSlot(std::shared_ptr<const core::ServableModel> initial);

  /// The currently-published snapshot. Never null; callers hold the returned
  /// shared_ptr for as long as they need the model. Lock-free.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Atomically replaces the published snapshot; returns its generation.
  /// Concurrent publishers are serialized (generation allocation and the
  /// store are one critical section), so the installed generation only ever
  /// increases — readers are never blocked.
  uint64_t Publish(std::shared_ptr<const core::ServableModel> model);

  uint64_t CurrentGeneration() const { return Current()->generation; }

 private:
#ifdef UAE_SNAPSHOT_TSAN
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> current_;
#else
  std::atomic<std::shared_ptr<const ModelSnapshot>> current_;
#endif
  std::mutex publish_mu_;  ///< Writers only; Current() never takes it.
  uint64_t next_generation_;
};

}  // namespace uae::serve
