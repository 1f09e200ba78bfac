#include "router/knn.h"

#include <algorithm>
#include <utility>

namespace uae::router {

namespace {
/// Distance smoothing: a neighbour weighs 1 / (d^2 + kEps), so an exact
/// repeat (d = 0) dominates without dividing by zero.
constexpr double kEps = 1e-6;
}  // namespace

ClassKnn::ClassKnn(std::vector<float> features, std::vector<double> log_cards,
                   size_t dim)
    : features_(std::move(features)),
      log_cards_(std::move(log_cards)),
      dim_(dim) {
  UAE_CHECK_EQ(features_.size(), log_cards_.size() * dim_);
}

std::optional<double> ClassKnn::PredictLogCard(std::span<const float> features,
                                               const KnnConfig& config) const {
  const size_t n = log_cards_.size();
  if (n < config.min_points || features.size() != dim_) return std::nullopt;

  // (squared distance, slot) pairs; partial-sort the k nearest. Slot index
  // breaks distance ties so predictions are deterministic.
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const float* p = &features_[i * dim_];
    double d2 = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      const double d = static_cast<double>(p[j]) - features[j];
      d2 += d * d;
    }
    dist.emplace_back(d2, i);
  }
  const size_t k = std::min<size_t>(static_cast<size_t>(std::max(1, config.k)), n);
  std::partial_sort(dist.begin(), dist.begin() + static_cast<ptrdiff_t>(k),
                    dist.end());

  double weight_total = 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (dist[i].first + kEps);
    weight_total += w;
    acc += w * log_cards_[dist[i].second];
  }
  return acc / weight_total;
}

void KnnRing::Add(std::span<const float> features, double log_card) {
  if (count_ == 0 && dim_ == 0) {
    dim_ = features.size();
    features_.reserve(capacity_ * dim_);
    log_cards_.reserve(capacity_);
  }
  if (features.size() != dim_ || dim_ == 0) return;  // Shape mismatch: drop.
  if (count_ < capacity_) {
    features_.insert(features_.end(), features.begin(), features.end());
    log_cards_.push_back(log_card);
    ++count_;
    return;
  }
  std::copy(features.begin(), features.end(), features_.begin() +
                                                  static_cast<ptrdiff_t>(next_ * dim_));
  log_cards_[next_] = log_card;
  next_ = (next_ + 1) % capacity_;
}

ClassKnn KnnRing::Freeze() const { return ClassKnn(features_, log_cards_, dim_); }

}  // namespace uae::router
