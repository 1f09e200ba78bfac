// Adapter exposing core::Uae through the common estimator interface so the
// bench harnesses treat UAE / UAE-D (Naru) / UAE-Q uniformly with baselines.
#pragma once

#include <string>

#include "core/uae.h"
#include "estimators/estimator.h"

namespace uae::estimators {

class UaeAdapter : public CardinalityEstimator {
 public:
  /// Does not own the estimator. `display_name` distinguishes the training
  /// regime: "UAE", "Naru" (=UAE-D), "UAE-Q".
  UaeAdapter(const core::Uae* uae, std::string display_name)
      : uae_(uae), name_(std::move(display_name)) {}

  std::string name() const override { return name_; }
  double EstimateCard(const workload::Query& query) const override;
  /// Fans progressive sampling across the global thread pool; results are
  /// bit-identical to the sequential path (per-query derived RNG seeds).
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override { return uae_->SizeBytes(); }

 private:
  const core::Uae* uae_;
  std::string name_;
};

}  // namespace uae::estimators
