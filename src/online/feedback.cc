#include "online/feedback.h"

#include <utility>

namespace uae::online {

FeedbackCollector::FeedbackCollector(const FeedbackConfig& config)
    : config_(config) {
  UAE_CHECK_GT(config_.capacity, 0u);
  buffer_.reserve(config_.capacity);
}

void FeedbackCollector::Add(FeedbackEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  ++observed_;
  if (buffer_.size() < config_.capacity) {
    buffer_.push_back(std::move(entry));
    return;
  }
  // Ring overwrite: ring_next_ is the oldest surviving entry.
  buffer_[ring_next_] = std::move(entry);
  ring_next_ = (ring_next_ + 1) % config_.capacity;
}

size_t FeedbackCollector::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

uint64_t FeedbackCollector::TotalObserved() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observed_;
}

std::vector<FeedbackEntry> FeedbackCollector::OrderedLocked() const {
  // A full buffer is a ring: the slot about to be overwritten is the oldest
  // entry. Rotate so callers always see arrival order.
  std::vector<FeedbackEntry> out;
  out.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    out.push_back(buffer_[(ring_next_ + i) % buffer_.size()]);
  }
  return out;
}

std::vector<FeedbackEntry> FeedbackCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return OrderedLocked();
}

std::vector<FeedbackEntry> FeedbackCollector::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FeedbackEntry> out = OrderedLocked();
  buffer_.clear();
  ring_next_ = 0;
  return out;
}

workload::Workload FeedbackCollector::SnapshotWorkload(size_t num_rows) const {
  return ToWorkload(Snapshot(), num_rows);
}

workload::Workload ToWorkload(const std::vector<FeedbackEntry>& entries,
                              size_t num_rows) {
  std::vector<workload::Query> queries;
  std::vector<double> cards;
  queries.reserve(entries.size());
  cards.reserve(entries.size());
  for (const FeedbackEntry& e : entries) {
    if (e.join_mask != 0) continue;  // Join feedback feeds the subplan memo.
    queries.push_back(e.query);
    cards.push_back(e.true_card);
  }
  return workload::MakeLabeledWorkload(queries, cards, num_rows);
}

}  // namespace uae::online
