// Linear-regression baseline (§5.1.4 #2, [40]): a query is represented as the
// concatenation of each predicate's domain range (following Dutt et al. [19])
// and a ridge regression predicts log-selectivity. Closed-form normal
// equations; the non-DL query-driven counterpart to MSCN.
#pragma once

#include <vector>

#include "core/servable.h"
#include "data/table.h"
#include "workload/query.h"

namespace uae::estimators {

class LrEstimator : public core::ServableModel {
 public:
  LrEstimator(const data::Table& table, double ridge = 1e-3);

  /// Fits on a labeled workload (query-driven: never sees the data).
  void Train(const workload::Workload& workload);

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override { return weights_.size() * sizeof(double); }
  size_t num_rows() const override { return table_rows_; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<LrEstimator>(*this);
  }

  /// Feature vector: per column [lo_frac, hi_frac] + intercept.
  std::vector<double> Featurize(const workload::Query& query) const;

 private:
  const data::Table* table_;
  double ridge_;
  std::vector<double> weights_;
  double min_log_ = -20.0;
  size_t table_rows_;
};

/// Solves (A + ridge*I) x = b for symmetric positive definite A in place.
/// Exposed for unit tests.
std::vector<double> SolveRidge(std::vector<std::vector<double>> a,
                               std::vector<double> b, double ridge);

}  // namespace uae::estimators
