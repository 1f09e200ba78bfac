#include "ingest/service.h"

namespace uae::ingest {

namespace {
/// A short apply batch waits at most this long, anchored at its oldest row.
constexpr std::chrono::microseconds kMaxWait{500};
}  // namespace

IngestService::IngestService(data::Table* table,
                             const shard::HorizontalPartitioner* partitioner,
                             const IngestConfig& config)
    : table_(table),
      partitioner_(partitioner),
      config_(config),
      queue_(config.queue_capacity, config.max_batch, kMaxWait) {
  UAE_CHECK(table_ != nullptr && partitioner_ != nullptr);
  UAE_CHECK_GE(config_.queue_capacity, size_t{1});
  UAE_CHECK_GE(config_.max_batch, size_t{1});
  buffers_.reserve(static_cast<size_t>(partitioner_->num_shards()));
  for (int s = 0; s < partitioner_->num_shards(); ++s) {
    buffers_.push_back(std::make_unique<DeltaBuffer>());
  }
  apply_thread_ = std::thread([this] { ApplyLoop(); });
}

IngestService::~IngestService() {
  Close();
  if (apply_thread_.joinable()) apply_thread_.join();
}

bool IngestService::Append(std::vector<data::Value> values) {
  PendingRow row;
  row.values = std::move(values);
  return queue_.Push(std::move(row));
}

bool IngestService::AppendCodes(std::vector<int32_t> codes) {
  PendingRow row;
  row.codes = std::move(codes);
  row.encoded = true;
  return queue_.Push(std::move(row));
}

void IngestService::Flush() {
  const uint64_t target = queue_.Admitted();
  std::unique_lock<std::mutex> lock(applied_mu_);
  flushed_cv_.wait(lock, [this, target] { return applied_rows_ >= target; });
}

void IngestService::Close() { queue_.Close(); }

size_t IngestService::CompactNow() {
  // writer_mu_ first: a fold must never overlap the apply thread's appends
  // (the delta region is single-writer; FoldDelta consumes the published
  // prefix and resets the count).
  std::lock_guard<std::mutex> writer(writer_mu_);
  return CompactLocked();
}

size_t IngestService::CompactLocked() {
  size_t folded = 0;
  {
    std::unique_lock<std::shared_mutex> exclusive(table_mu_);
    folded = table_->FoldDelta();
  }
  if (folded > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.compactions;
    stats_.folded_rows += folded;
  }
  return folded;
}

IngestStats IngestService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

size_t IngestService::QueueDepth() const { return queue_.Depth(); }

void IngestService::ApplyLoop() {
  for (;;) {
    std::vector<PendingRow> batch = queue_.PopBatch();
    if (batch.empty()) return;  // Closed and drained.
    {
      std::lock_guard<std::mutex> writer(writer_mu_);
      ApplyBatch(batch);
      MaybeCompact();
    }
    {
      std::lock_guard<std::mutex> lock(applied_mu_);
      applied_rows_ += batch.size();
    }
    flushed_cv_.notify_all();
  }
}

void IngestService::ApplyBatch(std::vector<PendingRow>& batch) {
  const int pcol = partitioner_->partition_col();
  const data::Column& pcolumn = table_->column(pcol);
  uint64_t appended = 0, rejected = 0, unseen = 0, overflow_rows = 0;
  std::vector<int32_t> codes;
  for (PendingRow& row : batch) {
    const int32_t* row_codes = nullptr;
    size_t arity = 0;
    if (row.encoded) {
      row_codes = row.codes.data();
      arity = row.codes.size();
    } else {
      if (row.values.size() != static_cast<size_t>(table_->num_cols())) {
        ++rejected;
        continue;
      }
      unseen += static_cast<uint64_t>(table_->EncodeAppendRow(row.values, &codes));
      row_codes = codes.data();
      arity = codes.size();
    }
    // The global index of the row about to be appended (single writer: no
    // other append can interleave).
    const size_t global_row = table_->num_rows();
    util::Status status =
        table_->AppendDeltaRowCodes(std::span<const int32_t>(row_codes, arity));
    if (!status.ok()) {
      ++rejected;
      continue;
    }
    bool has_overflow = false;
    for (size_t c = 0; c < arity; ++c) {
      if (row_codes[c] >= table_->column(static_cast<int>(c)).domain()) {
        has_overflow = true;
        break;
      }
    }
    const int shard =
        partitioner_->ShardForIngestCode(row_codes[static_cast<size_t>(pcol)],
                                         pcolumn);
    buffers_[static_cast<size_t>(shard)]->Append(global_row, has_overflow);
    ++appended;
    if (has_overflow) ++overflow_rows;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.rows_appended += appended;
  stats_.rows_rejected += rejected;
  stats_.unseen_values += unseen;
  stats_.overflow_rows += overflow_rows;
  ++stats_.batches;
}

void IngestService::MaybeCompact() {
  if (config_.compact_min_delta == 0) return;
  if (table_->delta_rows() >= config_.compact_min_delta) CompactLocked();
}

}  // namespace uae::ingest
