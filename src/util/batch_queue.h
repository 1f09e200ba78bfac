// BatchQueue<T> — a bounded multi-producer queue drained in size-or-deadline
// batches. The estimation service's request queue
// (serve::EstimationService) and the ingest service's row queue
// (ingest::IngestService) both admit through it.
//
// Producers Push() single items into the bounded queue (backpressure: Push
// blocks while the queue is at capacity). One consumer drains with
// PopBatch(): it blocks until at least one item is queued, then keeps
// admitting arrivals until either `max_batch` items are collected or
// `max_wait` has elapsed since the batch's OLDEST item was pushed — the
// classic size-or-deadline coalescing policy, with the deadline anchored at
// admission so a lagging consumer cannot extend an item's wait beyond
// max_wait from the moment it entered the queue. A zero `max_wait` takes what
// is queued and never parks: the estimation service runs that way, so its
// batches are whatever arrived while the previous one ran, and the ingest
// queue is the one that waits out a deadline. Close() wakes everyone and
// makes further Push calls fail so the consumer can drain and exit.
//
// `T` has a `std::chrono::steady_clock::time_point enqueued_at` field that
// Push stamps at admission.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace uae::util {

template <typename T>
class BatchQueue {
 public:
  /// A `capacity` or `max_batch` of 0 is treated as 1.
  BatchQueue(size_t capacity, size_t max_batch,
             std::chrono::microseconds max_wait)
      : capacity_(std::max<size_t>(1, capacity)),
        max_batch_(std::max<size_t>(1, max_batch)),
        max_wait_(max_wait) {}
  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues an item; blocks while the queue is full. Returns false (and
  /// leaves `item` untouched) once Close() has been called.
  bool Push(T&& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    item.enqueued_at = std::chrono::steady_clock::now();
    queue_.push_back(std::move(item));
    ++admitted_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Consumer side: blocks for the next batch. Returns an empty vector only
  /// when the queue is closed and fully drained.
  std::vector<T> PopBatch() {
    std::vector<T> batch;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return batch;  // Closed and drained.

    // The batch's deadline is anchored at its oldest item's ARRIVAL, not at
    // consumer wake-up: if the consumer lagged (busy with the previous
    // batch), anchoring here at now() would let an item wait up to ~2x
    // max_wait between Push and dispatch. An already-expired deadline just
    // means "flush whatever is queued without parking".
    const auto deadline = queue_.front().enqueued_at + max_wait_;
    for (;;) {
      bool drained = false;
      while (!queue_.empty() && batch.size() < max_batch_) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        drained = true;
      }
      // Wake producers blocked on a full queue *before* parking on the
      // deadline, or a capacity < max_batch configuration would cap every
      // batch at the queue size and stall the consumer for the whole
      // max_wait while producers sleep.
      if (drained) not_full_.notify_all();
      if (batch.size() >= max_batch_ || closed_) break;
      if (!not_empty_.wait_until(
              lock, deadline, [this] { return closed_ || !queue_.empty(); })) {
        break;  // Deadline hit with a partial batch.
      }
      if (queue_.empty()) break;  // Closed while waiting.
    }
    lock.unlock();
    not_full_.notify_all();
    return batch;
  }

  /// Unblocks producers and the consumer; queued items still drain.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Items currently queued (admitted, not yet popped into a batch).
  size_t Depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Microseconds the oldest queued item has been waiting; 0 when empty.
  uint64_t OldestWaitMicros() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return 0;
    const auto wait =
        std::chrono::steady_clock::now() - queue_.front().enqueued_at;
    return static_cast<uint64_t>(std::max<int64_t>(
        0,
        std::chrono::duration_cast<std::chrono::microseconds>(wait).count()));
  }

  /// Pushes accepted so far; a Push refused after Close() is not counted.
  uint64_t Admitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return admitted_;
  }

 private:
  const size_t capacity_;
  const size_t max_batch_;
  const std::chrono::microseconds max_wait_;

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  uint64_t admitted_ = 0;
  bool closed_ = false;
};

}  // namespace uae::util
