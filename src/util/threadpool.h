// A small fixed-size thread pool plus a ParallelFor helper used by the GEMM
// kernels, the wavefront sampler, the sharded deployment and the exact query
// executor.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/common.h"

namespace uae::util {

class ThreadPool {
 public:
  /// `num_threads` == 0 selects hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();
  UAE_DISALLOW_COPY(ThreadPool);

  size_t num_threads() const { return workers_.size(); }

  /// Schedules `fn` and returns immediately. Use Wait() to join.
  void Submit(std::function<void()> fn);

  /// Blocks until all submitted work has finished.
  void Wait();

  /// True when the calling thread is a worker of *this* pool. ParallelFor
  /// does not consult it; its one use is the estimation service, which
  /// answers a global-pool worker's request inline rather than parking the
  /// worker on the dispatcher (serve/service.h).
  bool InThisPool() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Returns the process-wide pool (lazily constructed, sized to the machine).
ThreadPool& GlobalPool();

/// Splits [begin, end) into consecutive chunks of ceil(n / c) indices, where
/// c = min(GlobalPool().num_threads(), ceil(n / min_parallel_size)), and
/// calls `body(lo, hi)` once per chunk. The ranges depend only on the
/// arguments and the pool size, never on which thread runs them.
///
///  * The caller works: it submits up to chunks - 1 pool helpers, and it and
///    they claim chunks from one shared index until none is left. The caller
///    then waits only for chunks a helper has already claimed, so the call
///    makes progress even when every pool worker is busy. A single chunk
///    runs on the caller with no pool handoff.
///  * Nested calls fan out: a call from a pool worker (a shard's wave
///    fan-out inside the shards' own fan-out) works like any other. It
///    cannot deadlock, because a waiter only ever waits on running chunks.
///  * A chunk that throws still counts as finished; the first exception is
///    rethrown on the caller once every claimed chunk has returned.
///
/// A helper that starts after the call returned finds no chunk left and
/// returns at once.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 size_t min_parallel_size = 4096);

}  // namespace uae::util
