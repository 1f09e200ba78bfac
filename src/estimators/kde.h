// Kernel density estimation baseline (§5.1.4 #5, [26]): Gaussian product
// kernels over a uniform row sample, bandwidths from Scott's rule. Works in
// code space (order-preserving dictionaries make codes a valid numeric axis,
// exactly how the original operates on discretized attributes).
#pragma once

#include <vector>

#include "core/servable.h"
#include "data/table.h"
#include "util/rng.h"

namespace uae::estimators {

class KdeEstimator : public core::ServableModel {
 public:
  KdeEstimator(const data::Table& table, size_t sample_size, uint64_t seed);

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return table_rows_; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<KdeEstimator>(*this);
  }

  /// Per-dimension bandwidths (Feedback-KDE tunes these).
  std::vector<double>& bandwidths() { return bandwidths_; }
  const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// Selectivity plus, optionally, its gradient w.r.t. each bandwidth
  /// (needed by Feedback-KDE's bandwidth optimization).
  double SelectivityAndGrad(const workload::Query& query,
                            std::vector<double>* grad_bw) const;

 protected:
  /// Per-constraint allowed code intervals (each treated as [lo-0.5, hi+0.5]).
  static std::vector<std::pair<int32_t, int32_t>> Intervals(
      const workload::Constraint& c, int32_t domain);

  std::vector<std::vector<double>> sample_;  ///< [col][sample] codes as double.
  std::vector<double> bandwidths_;
  size_t table_rows_ = 0;
  size_t n_ = 0;  ///< Sample size.
};

}  // namespace uae::estimators
