#include "estimators/spn_servable.h"

#include <algorithm>

#include "util/common.h"
#include "util/threadpool.h"

namespace uae::estimators {

SpnServable::SpnServable(const data::Table& table,
                         const SpnServableConfig& config)
    : table_(&table),
      config_(config),
      spn_(std::make_unique<SpnEstimator>(table, config.spn)),
      num_rows_(table.num_rows()) {}

SpnServable::SpnServable(const data::Table& table,
                         const SpnServableConfig& config,
                         std::unique_ptr<SpnEstimator> spn, size_t num_rows)
    : table_(&table),
      config_(config),
      spn_(std::move(spn)),
      num_rows_(num_rows) {}

double SpnServable::EstimateCard(const workload::Query& query) const {
  // Selectivity times the construction-time row snapshot: stays pure under
  // concurrent ingest into the backing table.
  return spn_->EstimateSelectivity(query) * static_cast<double>(num_rows_);
}

std::vector<double> SpnServable::EstimateCards(
    std::span<const workload::Query> queries) const {
  std::vector<double> out(queries.size());
  // Each element is an independent pure read of an immutable tree, so the
  // parallel split cannot affect bitwise results.
  util::ParallelFor(
      0, queries.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) out[i] = EstimateCard(queries[i]);
      },
      /*min_parallel_size=*/64);
  return out;
}

std::shared_ptr<core::ServableModel> SpnServable::CloneServable() const {
  return std::shared_ptr<SpnServable>(
      new SpnServable(*table_, config_, spn_->Clone(), num_rows_));
}

size_t SpnServable::FineTune(const workload::Workload& workload,
                             const core::FineTuneSpec& spec) {
  // The default step is deliberately small: larger rates overshoot and
  // oscillate when the same feedback queries are cycled for many steps.
  constexpr double kDefaultLearningRate = 0.1;
  return spn_->FineTuneOnQueries(
      workload, spec.query_steps,
      spec.learning_rate > 0.0 ? spec.learning_rate : kDefaultLearningRate);
}

}  // namespace uae::estimators
