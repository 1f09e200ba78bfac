// SpnServable — the query-driven SPN behind core::ServableModel (ROADMAP
// item 5, arXiv 2505.08318). Wraps estimators::SpnEstimator so the serving,
// adaptation, routing, and sharding layers can deploy an SPN exactly like a
// UAE: EstimateCard is one sampling-free bottom-up pass, FineTune runs the
// multiplicative/EM update on sum weights and leaf histograms from labeled
// feedback (at FineTuneSpec::learning_rate, 0.1 by default), CloneServable
// deep-copies to a bitwise-identical independent candidate, and the whole
// object is pure for concurrent readers between FineTune calls.
//
// Purity note: SpnEstimator::EstimateCard reads the table's *live* row count,
// which moves under streaming ingest. The servable instead snapshots the row
// count at construction and scales EstimateSelectivity itself, so a published
// snapshot keeps answering bitwise-identically regardless of appends. The
// underlying table must outlive the servable and every clone.
#pragma once

#include <memory>

#include "core/servable.h"
#include "data/table.h"
#include "estimators/spn.h"

namespace uae::estimators {

struct SpnServableConfig {
  SpnConfig spn;
};

class SpnServable : public core::ServableModel {
 public:
  /// Builds a fresh SPN over `table`. The table reference must outlive the
  /// servable and all of its clones.
  SpnServable(const data::Table& table, const SpnServableConfig& config);

  double EstimateCard(const workload::Query& query) const override;
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override { return spn_->SizeBytes(); }
  size_t num_rows() const override { return num_rows_; }
  uint64_t seed() const override { return config_.spn.seed; }
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  /// Runs spec.query_steps multiplicative updates over `workload`
  /// (deterministically cycling it in order; spec.hybrid_epochs has no SPN
  /// analogue and is ignored) at spec.learning_rate, or 0.1 when that is not
  /// positive. Returns the number of distinct queries that produced an
  /// update; 0 means the parameters are bitwise unchanged.
  size_t FineTune(const workload::Workload& workload,
                  const core::FineTuneSpec& spec) override;

  /// The wrapped SPN (structure introspection + signatures for tests).
  const SpnEstimator& spn() const { return *spn_; }

 private:
  SpnServable(const data::Table& table, const SpnServableConfig& config,
              std::unique_ptr<SpnEstimator> spn, size_t num_rows);

  const data::Table* table_;
  SpnServableConfig config_;
  std::unique_ptr<SpnEstimator> spn_;
  size_t num_rows_;
};

}  // namespace uae::estimators
