#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace uae::util {

namespace {
thread_local const ThreadPool* t_worker_pool = nullptr;

/// One ParallelFor call's chunks, claimed by the caller and its pool helpers.
/// Helpers own it jointly with the caller, so a helper that starts after the
/// call returned still reads live memory: it finds `next` past the last
/// chunk and never touches `body`, which lives in the caller's frame.
struct ChunkClaims {
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 0;
  size_t chunks = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  std::atomic<size_t> next{0};

  std::mutex mu;                // Guards finished and error.
  std::condition_variable done_cv;
  size_t finished = 0;
  std::exception_ptr error;     // The first chunk's exception, if any.

  /// Claims and runs chunks until none is left.
  void Run() {
    for (size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const size_t lo = begin + c * chunk;
      std::exception_ptr thrown;
      try {
        (*body)(lo, std::min(end, lo + chunk));
      } catch (...) {
        thrown = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (thrown && !error) error = std::move(thrown);
      if (++finished == chunks) done_cv.notify_all();
    }
  }
};
}  // namespace

bool ThreadPool::InThisPool() const { return t_worker_pool == this; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(fn));
    ++in_flight_;
  }
  cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

ThreadPool& GlobalPool() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 size_t min_parallel_size) {
  if (end <= begin) return;
  ThreadPool& pool = GlobalPool();
  const size_t n = end - begin;
  const size_t target =
      std::min(pool.num_threads(), (n + min_parallel_size - 1) / min_parallel_size);
  const size_t chunk = (n + target - 1) / target;
  const size_t chunks = (n + chunk - 1) / chunk;  // Non-empty chunks only.
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  auto claims = std::make_shared<ChunkClaims>();
  claims->begin = begin;
  claims->end = end;
  claims->chunk = chunk;
  claims->chunks = chunks;
  claims->body = &body;
  for (size_t h = 1; h < chunks; ++h) pool.Submit([claims] { claims->Run(); });
  claims->Run();
  // Every chunk is claimed now; wait for the ones still running elsewhere.
  std::unique_lock<std::mutex> lock(claims->mu);
  claims->done_cv.wait(lock, [&] { return claims->finished == chunks; });
  if (claims->error) std::rethrow_exception(claims->error);
}

}  // namespace uae::util
