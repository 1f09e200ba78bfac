// Feedback-KDE (§5.1.4 #9, Heimel et al. [30]): tunes KDE bandwidths by
// numerically minimizing the squared selectivity error over the training
// workload (the "SquaredQ loss / Batch variant" setup the paper uses).
#pragma once

#include "estimators/kde.h"
#include "workload/query.h"

namespace uae::estimators {

class FeedbackKdeEstimator : public KdeEstimator {
 public:
  FeedbackKdeEstimator(const data::Table& table, size_t sample_size, uint64_t seed)
      : KdeEstimator(table, sample_size, seed) {}

  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<FeedbackKdeEstimator>(*this);
  }

  /// Gradient descent on log-bandwidths against (sel_hat - sel)^2, batched
  /// over the workload. Returns the final mean squared error.
  double TuneBandwidths(const workload::Workload& workload, int epochs,
                        double learning_rate = 0.05);
};

}  // namespace uae::estimators
