// Sampling baseline (§5.1.4 #3): keeps a uniform p-fraction of tuples and
// scans it per query.
#pragma once

#include <memory>

#include "core/servable.h"
#include "data/table.h"
#include "util/rng.h"

namespace uae::estimators {

class SamplingEstimator : public core::ServableModel {
 public:
  SamplingEstimator(const data::Table& table, double fraction, uint64_t seed);

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return table_rows_; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<SamplingEstimator>(*this);
  }

  size_t sample_rows() const { return sample_.num_rows(); }
  const data::Table& sample() const { return sample_; }

 private:
  data::Table sample_;
  size_t table_rows_;
};

}  // namespace uae::estimators
