// VersionedSlot<T> — one published immutable value and its generation,
// behind an atomic shared_ptr. The serving snapshot
// (serve::EstimationService) and the routing table (router::HybridRouter)
// publish through it.
//
// Readers grab the value with Current() and keep it alive while they use it,
// so work in flight finishes on the value it started with. `T` has a
// `uint64_t generation` field that the slot assigns: 1 for the value the
// slot is constructed with, then the next one per Publish(). Generation
// allocation and the store form one publisher critical section, so racing
// publishers get distinct generations and the installed generation only
// ever increases.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

// ThreadSanitizer cannot see through libstdc++'s lock-free _Sp_atomic (the
// spinlock bit lives inside the control word, so TSan misses its
// acquire/release pairing and reports false races). TSan builds swap in a
// mutex-guarded pointer with identical semantics.
#if defined(__SANITIZE_THREAD__)
#define UAE_VERSIONED_SLOT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UAE_VERSIONED_SLOT_TSAN 1
#endif
#endif

namespace uae::util {

template <typename T>
class VersionedSlot {
 public:
  explicit VersionedSlot(T initial) {
    auto value = std::make_shared<T>(std::move(initial));
    value->generation = 1;
    Store(std::move(value));
  }
  VersionedSlot(const VersionedSlot&) = delete;
  VersionedSlot& operator=(const VersionedSlot&) = delete;

  /// Never null. Lock-free outside TSan builds.
  std::shared_ptr<const T> Current() const {
#ifdef UAE_VERSIONED_SLOT_TSAN
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
#else
    return current_.load(std::memory_order_acquire);
#endif
  }

  uint64_t CurrentGeneration() const { return Current()->generation; }

  /// Installs `value` under the next generation and returns it.
  uint64_t Publish(T value) {
    auto next = std::make_shared<T>(std::move(value));
    std::lock_guard<std::mutex> lock(publish_mu_);
    next->generation = next_generation_++;
    const uint64_t generation = next->generation;
    Store(std::move(next));
    return generation;
  }

 private:
  void Store(std::shared_ptr<const T> value) {
#ifdef UAE_VERSIONED_SLOT_TSAN
    std::lock_guard<std::mutex> lock(current_mu_);
    current_ = std::move(value);
#else
    current_.store(std::move(value), std::memory_order_release);
#endif
  }

#ifdef UAE_VERSIONED_SLOT_TSAN
  mutable std::mutex current_mu_;
  std::shared_ptr<const T> current_;
#else
  std::atomic<std::shared_ptr<const T>> current_;
#endif
  std::mutex publish_mu_;  ///< Publishers only; Current() never takes it.
  uint64_t next_generation_ = 2;
};

}  // namespace uae::util
