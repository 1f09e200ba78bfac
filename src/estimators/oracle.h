// Oracle estimator returning exact cardinalities via the executor. Used as
// the "TrueCard" planner of the query-optimization study (Fig. 6) and as a
// reference in tests.
#pragma once

#include "core/servable.h"
#include "data/table.h"

namespace uae::estimators {

class OracleEstimator : public core::ServableModel {
 public:
  explicit OracleEstimator(const data::Table& table) : table_(table) {}

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override { return 0; }
  size_t num_rows() const override { return table_.num_rows(); }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<OracleEstimator>(*this);
  }

 private:
  const data::Table& table_;
};

}  // namespace uae::estimators
