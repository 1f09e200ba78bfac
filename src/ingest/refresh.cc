#include "ingest/refresh.h"

#include <algorithm>
#include <chrono>

#include "online/controller.h"
#include "util/stopwatch.h"

namespace uae::ingest {

const char* RefreshOutcomeName(RefreshOutcome outcome) {
  switch (outcome) {
    case RefreshOutcome::kSkippedNoStaleShards:
      return "skipped_no_stale_shards";
    case RefreshOutcome::kSkippedBusy:
      return "skipped_busy";
    case RefreshOutcome::kRejectedByGuard:
      return "rejected_by_guard";
    case RefreshOutcome::kPublished:
      return "published";
  }
  return "?";
}

RefreshController::RefreshController(
    IngestService* ingest, serve::EstimationService* service,
    std::shared_ptr<const shard::ShardedServable> base,
    const RefreshConfig& config)
    : ingest_(ingest),
      service_(service),
      config_(config),
      monitor_(ingest, config.staleness),
      base_(std::move(base)),
      loop_(std::chrono::milliseconds(config.period_ms),
            [this] { RefreshIfStale(); }) {
  UAE_CHECK(ingest_ != nullptr && service_ != nullptr && base_ != nullptr);
  UAE_CHECK_EQ(base_->num_shards(), ingest_->num_shards());
}

std::shared_ptr<const shard::ShardedServable> RefreshController::current_base()
    const {
  std::lock_guard<std::mutex> lock(base_mu_);
  return base_;
}

RefreshStats RefreshController::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

RefreshResult RefreshController::RefreshIfStale() {
  std::unique_lock<std::mutex> busy(busy_mu_, std::try_to_lock);
  if (!busy.owns_lock()) {
    RefreshResult result;
    result.outcome = RefreshOutcome::kSkippedBusy;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.skipped;
    return result;
  }
  return RunRefresh(monitor_.StaleShards(), std::move(busy));
}

RefreshResult RefreshController::RefreshShards(std::vector<int> shards) {
  for (int s : shards) {
    UAE_CHECK(s >= 0 && s < ingest_->num_shards())
        << "RefreshShards: shard id " << s << " out of range";
  }
  std::unique_lock<std::mutex> busy(busy_mu_, std::try_to_lock);
  if (!busy.owns_lock()) {
    RefreshResult result;
    result.outcome = RefreshOutcome::kSkippedBusy;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.skipped;
    return result;
  }
  if (shards.empty()) {
    for (int s = 0; s < ingest_->num_shards(); ++s) {
      if (ingest_->shard_buffer(s).rows_since_refresh() > 0) {
        shards.push_back(s);
      }
    }
  }
  return RunRefresh(std::move(shards), std::move(busy));
}

RefreshResult RefreshController::RunRefresh(std::vector<int> shards,
                                            std::unique_lock<std::mutex> busy) {
  RefreshResult result;
  if (shards.empty()) {
    result.outcome = RefreshOutcome::kSkippedNoStaleShards;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.skipped;
    return result;
  }
  util::Stopwatch timer;
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());

  const int n = ingest_->num_shards();
  std::vector<uint8_t> refresh_set(static_cast<size_t>(n), 0);
  for (int s : shards) refresh_set[static_cast<size_t>(s)] = 1;

  // Snapshot phase, under the table pin (appends continue; compaction waits):
  // cut each buffer, gather pending in-domain rows per stale shard, and
  // collect every overflow row's codes for the tail.
  std::vector<size_t> cuts(static_cast<size_t>(n), 0);
  std::vector<data::Table> deltas;
  std::vector<int> delta_shards;
  std::vector<std::vector<int32_t>> tail;
  {
    auto pin = ingest_->PinTable();
    const data::Table& table = ingest_->table();
    for (int s = 0; s < n; ++s) {
      const DeltaBuffer& buf = ingest_->shard_buffer(s);
      const size_t cut = buf.size();
      cuts[static_cast<size_t>(s)] = cut;
      for (size_t i = 0; i < cut; ++i) {
        if (buf.overflow_at(i)) tail.push_back(table.RowCodes(buf.row_at(i)));
      }
      if (!refresh_set[static_cast<size_t>(s)]) continue;
      std::vector<size_t> rows;
      for (size_t i = buf.watermark(); i < cut; ++i) {
        if (!buf.overflow_at(i)) rows.push_back(buf.row_at(i));
      }
      if (!rows.empty()) {
        deltas.push_back(table.Gather(
            rows, table.name() + "_delta_shard" + std::to_string(s)));
        delta_shards.push_back(s);
        result.rows_ingested += rows.size();
      }
    }
  }
  result.refreshed_shards = shards;
  result.tail_rows = tail.size();

  // Training phase, off the pin: clone the typed lineage head and ingest each
  // stale shard's delta (the other shards' parameters stay bit-identical).
  std::shared_ptr<shard::ShardedServable> refreshed = current_base()->Clone();
  for (size_t i = 0; i < deltas.size(); ++i) {
    refreshed->IngestShardRows(delta_shards[i], deltas[i], config_.data_epochs);
  }
  std::shared_ptr<core::ServableModel> servable = refreshed;
  if (!tail.empty()) {
    servable = std::make_shared<DeltaAwareModel>(refreshed, &ingest_->table(),
                                                 std::move(tail));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.attempts;
  }

  if (config_.guard_max_ratio > 0 && config_.holdout_provider) {
    const workload::Workload holdout = config_.holdout_provider();
    auto incumbent = service_->CurrentSnapshot();
    const online::GuardVerdict verdict = online::EvaluateCandidate(
        *incumbent->model, *servable, holdout, config_.guard_max_ratio);
    result.incumbent_median = verdict.incumbent_median;
    result.candidate_median = verdict.candidate_median;
    if (!verdict.accept) {
      result.outcome = RefreshOutcome::kRejectedByGuard;
      result.seconds = timer.ElapsedSeconds();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
      return result;
    }
  }

  result.generation = service_->PublishSnapshot(servable);
  for (int s : shards) {
    // Safe concurrently with the apply thread: MarkRefreshed only advances
    // the cut this cycle snapshotted.
    ingest_->mutable_shard_buffer(s).MarkRefreshed(cuts[static_cast<size_t>(s)]);
  }
  {
    std::lock_guard<std::mutex> lock(base_mu_);
    base_ = refreshed;
  }
  result.outcome = RefreshOutcome::kPublished;
  result.seconds = timer.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.published;
  stats_.rows_ingested += result.rows_ingested;
  stats_.last_published_generation = result.generation;
  return result;
}

}  // namespace uae::ingest
