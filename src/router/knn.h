// Online k-nearest-neighbour regression over recent (features, log true
// cardinality) pairs — the router's microsecond fast path for hot repeated
// query classes, after the OkNNr design of the AQO line of work: per class,
// keep the newest `capacity` labeled points and answer a query as the
// distance-weighted average of its k nearest neighbours in literal-feature
// space. Exact repeats (distance 0) recall their observed cardinality; near
// repeats interpolate.
//
// Split mutable/immutable: the router's learner appends into a KnnRing
// (single-writer, guarded by the learner's mutex), and each routing-table
// publish freezes the ring into a ClassKnn snapshot that the serving path
// reads lock-free. Predictions are deterministic: ties in distance break by
// ring slot index.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/common.h"

namespace uae::router {

struct KnnConfig {
  size_t capacity = 64;  ///< Labeled points kept per class (ring overwrite).
  int k = 4;             ///< Neighbours consulted per prediction.
  size_t min_points = 4; ///< Predict() refuses until the class has this many.
};

/// Immutable per-class point set, readable concurrently without locks.
class ClassKnn {
 public:
  ClassKnn() = default;
  ClassKnn(std::vector<float> features, std::vector<double> log_cards,
           size_t dim);

  /// Distance-weighted k-NN estimate of log(card) at `features`, or nullopt
  /// while the class has fewer than `config.min_points` points (or a
  /// dimensionality mismatch — a stale snapshot answering a reshaped class).
  std::optional<double> PredictLogCard(std::span<const float> features,
                                       const KnnConfig& config) const;

  size_t size() const { return log_cards_.size(); }
  size_t dim() const { return dim_; }

 private:
  std::vector<float> features_;   ///< size() x dim_, row-major.
  std::vector<double> log_cards_;
  size_t dim_ = 0;
};

/// Mutable fixed-capacity point ring (newest overwrite oldest) the learner
/// folds feedback into. Not thread-safe; the owner serializes access.
class KnnRing {
 public:
  explicit KnnRing(size_t capacity = 64) : capacity_(capacity) {
    UAE_CHECK_GT(capacity_, 0u);
  }

  /// Appends one labeled point. The first point fixes the dimensionality;
  /// later mismatches are dropped (defensive — one class hash implies one
  /// feature shape by construction).
  void Add(std::span<const float> features, double log_card);

  /// Freezes the current contents into an immutable snapshot.
  ClassKnn Freeze() const;

  size_t size() const { return count_; }

 private:
  size_t capacity_;
  size_t dim_ = 0;
  size_t next_ = 0;   ///< Ring slot the next Add overwrites once full.
  size_t count_ = 0;  ///< min(points added, capacity).
  std::vector<float> features_;
  std::vector<double> log_cards_;
};

}  // namespace uae::router
