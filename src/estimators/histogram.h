// Per-column equi-depth histograms combined under the attribute-value-
// independence (AVI) assumption — the classic "Postgres-like" baseline and the
// cardinality source for the mini optimizer's default planner (Fig. 6).
#pragma once

#include <vector>

#include "core/servable.h"
#include "data/table.h"

namespace uae::estimators {

/// Equi-depth histogram over one dictionary-encoded column.
class ColumnHistogram {
 public:
  ColumnHistogram() = default;
  ColumnHistogram(const data::Column& column, int num_buckets);

  /// Estimated fraction of rows whose code satisfies the constraint, assuming
  /// uniformity and distinct-value uniformity inside each bucket.
  double SelectivityOf(const workload::Constraint& constraint) const;
  size_t SizeBytes() const;
  int num_buckets() const { return static_cast<int>(lo_.size()); }

 private:
  double RangeFraction(int32_t lo, int32_t hi) const;
  double PointFraction(int32_t code) const;

  std::vector<int32_t> lo_;      ///< Bucket lower code (inclusive).
  std::vector<int32_t> hi_;      ///< Bucket upper code (inclusive).
  std::vector<int64_t> counts_;  ///< Rows per bucket.
  std::vector<int32_t> ndv_;     ///< Distinct codes per bucket.
  int64_t total_ = 0;
  int32_t domain_ = 0;
};

class HistogramAviEstimator : public core::ServableModel {
 public:
  HistogramAviEstimator(const data::Table& table, int buckets_per_column);

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return table_rows_; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<HistogramAviEstimator>(*this);
  }

  const ColumnHistogram& histogram(int col) const {
    return hists_[static_cast<size_t>(col)];
  }

 private:
  std::vector<ColumnHistogram> hists_;
  size_t table_rows_;
};

}  // namespace uae::estimators
