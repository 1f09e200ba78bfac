// Deterministic random-number generation used across the library.
//
// Every stochastic component (dataset generators, query generators, samplers,
// weight init, Gumbel noise) takes a util::Rng so experiments are reproducible
// from a single seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "util/common.h"

namespace uae::util {

/// A seeded 64-bit Mersenne-Twister wrapper with convenience draws.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    UAE_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
  }

  /// Standard normal scaled by `stddev` around `mean`.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

  /// Gumbel(0,1) sample: -log(-log(u)), u ~ Uniform(0,1). Eq. 9 of the paper.
  double Gumbel() {
    double u = std::uniform_real_distribution<double>(1e-12, 1.0)(gen_);
    return -std::log(-std::log(u));
  }

  /// Bernoulli draw with probability p of true.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Returns `weights.size()-1` on degenerate (all-zero) input.
  size_t Categorical(const std::vector<double>& weights);

  /// Samples an index from a float weight span (unnormalized, non-negative).
  size_t CategoricalF(const float* weights, size_t n);

  /// Zipf-distributed integer in [0, n) with exponent s (s=0 -> uniform).
  /// Uses inverse-CDF over the precomputed table of the caller? No table here:
  /// this is the O(n)-setup-free rejection-inversion approximation; adequate
  /// for data generation.
  int64_t Zipf(int64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), gen_);
  }

  /// Samples k distinct indices from [0, n) uniformly (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace uae::util
