#include "shard/sharded_servable.h"

#include <algorithm>
#include <atomic>

#include "util/common.h"
#include "util/threadpool.h"

namespace uae::shard {

ShardedServable::ShardedServable(const data::Table& table,
                                 const ShardedServableConfig& config,
                                 const ServableFactory& factory)
    : config_(config), num_rows_(table.num_rows()) {
  UAE_CHECK(factory != nullptr);
  auto partitioner =
      std::make_shared<HorizontalPartitioner>(table, config_.partition);
  config_.partition = partitioner->config();  // Resolved col, clamped N.
  auto tables = std::make_shared<std::vector<data::Table>>(
      partitioner->Materialize(table, table.name()));
  partitioner_ = std::move(partitioner);
  shard_tables_ = std::move(tables);

  const int n = partitioner_->num_shards();
  models_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    models_.push_back(factory((*shard_tables_)[static_cast<size_t>(s)], s,
                              MixShardSeed(config_.base_seed, s)));
    UAE_CHECK(models_.back() != nullptr);
  }
}

ShardedServable::ShardedServable(const ShardedServable& other)
    : config_(other.config_),
      partitioner_(other.partitioner_),
      shard_tables_(other.shard_tables_),
      num_rows_(other.num_rows_) {
  models_.reserve(other.models_.size());
  for (const auto& m : other.models_) models_.push_back(m->CloneServable());
}

std::unique_ptr<ShardedServable> ShardedServable::Clone() const {
  return std::unique_ptr<ShardedServable>(new ShardedServable(*this));
}

std::shared_ptr<core::ServableModel> ShardedServable::CloneServable() const {
  return std::shared_ptr<core::ServableModel>(Clone());
}

double ShardedServable::EstimateCard(const workload::Query& query) const {
  double total = 0.0;
  if (config_.prune) {
    for (int s : partitioner_->CandidateShards(query)) {
      total += models_[static_cast<size_t>(s)]->EstimateCard(query);
    }
  } else {
    for (const auto& m : models_) total += m->EstimateCard(query);
  }
  return total;
}

std::vector<double> ShardedServable::EstimateCards(
    std::span<const workload::Query> queries) const {
  // Each shard answers one batched call; accumulation order matches the
  // pruned per-query sum, so batching cannot change bits.
  const size_t n_q = queries.size();
  const size_t n_s = models_.size();
  std::vector<double> cards(n_q, 0.0);
  if (n_q == 0) return cards;
  std::vector<std::vector<size_t>> per_shard(n_s);
  for (size_t i = 0; i < n_q; ++i) {
    if (config_.prune) {
      for (int s : partitioner_->CandidateShards(queries[i])) {
        per_shard[static_cast<size_t>(s)].push_back(i);
      }
    } else {
      for (size_t s = 0; s < n_s; ++s) per_shard[s].push_back(i);
    }
  }
  std::vector<workload::Query> batch;
  for (size_t s = 0; s < n_s; ++s) {
    const std::vector<size_t>& idx = per_shard[s];
    if (idx.empty()) continue;
    batch.clear();
    batch.reserve(idx.size());
    for (size_t i : idx) batch.push_back(queries[i]);
    std::vector<double> ests = models_[s]->EstimateCards(batch);
    for (size_t j = 0; j < idx.size(); ++j) cards[idx[j]] += ests[j];
  }
  return cards;
}

size_t ShardedServable::SizeBytes() const {
  size_t total = 0;
  for (const auto& m : models_) total += m->SizeBytes();
  return total;
}

void ShardedServable::IngestShardRows(int s, const data::Table& delta,
                                      int epochs) {
  models_[static_cast<size_t>(s)]->IngestDataRows(delta, epochs);
  num_rows_ += delta.num_rows();
}

size_t ShardedServable::RouteWorkload(
    const workload::Workload& workload,
    std::vector<workload::Workload>* per_shard) const {
  per_shard->assign(models_.size(), {});
  size_t dropped = 0;
  for (const workload::LabeledQuery& lq : workload) {
    std::vector<int> cands = partitioner_->CandidateShards(lq.query);
    if (cands.size() != 1) {
      // Spanning (or provably empty) query: the global true cardinality
      // cannot be attributed to one shard's rows.
      ++dropped;
      continue;
    }
    const size_t s = static_cast<size_t>(cands[0]);
    workload::LabeledQuery routed = lq;
    routed.selectivity =
        lq.card /
        static_cast<double>(std::max<size_t>(1, models_[s]->num_rows()));
    (*per_shard)[s].push_back(std::move(routed));
  }
  return dropped;
}

size_t ShardedServable::FineTune(const workload::Workload& workload,
                                 const core::FineTuneSpec& spec) {
  std::vector<workload::Workload> per_shard;
  RouteWorkload(workload, &per_shard);
  std::atomic<size_t> used{0};
  // Shards are disjoint models fine-tuning disjoint slices; each model's own
  // FineTune is deterministic, so cross-shard parallelism cannot change bits.
  util::ParallelFor(
      0, models_.size(),
      [&](size_t lo, size_t hi) {
        for (size_t s = lo; s < hi; ++s) {
          if (!per_shard[s].empty()) {
            used.fetch_add(models_[s]->FineTune(per_shard[s], spec),
                           std::memory_order_relaxed);
          }
        }
      },
      /*min_parallel_size=*/1);
  return used.load(std::memory_order_relaxed);
}

}  // namespace uae::shard
