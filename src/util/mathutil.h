// Numerical helpers: stable log-sum-exp, normal CDF, moment statistics,
// entropy / mutual-information on discrete samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uae::util {

/// SplitMix64 finalizer: mixes a 64-bit value into a well-distributed hash.
/// Used to derive independent per-query RNG seeds from (model seed, query
/// fingerprint) so estimates are order- and thread-count-independent.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// log(sum_i exp(x_i)) computed stably. Returns -inf for empty input.
double LogSumExp(const std::vector<double>& xs);

/// Standard normal CDF Phi(x).
double NormalCdf(double x);
/// Standard normal PDF phi(x).
double NormalPdf(double x);

/// Fisher-Pearson standardized moment coefficient (sample skewness, g1).
/// This is the skewness statistic the paper reports for its datasets.
double Skewness(const std::vector<double>& xs);

double Mean(const std::vector<double>& xs);
double Variance(const std::vector<double>& xs);

/// Shannon entropy (nats) of a discrete sample given as category codes.
double Entropy(const std::vector<int32_t>& codes, int32_t domain);

/// Mutual information (nats) between two aligned discrete code columns.
double MutualInformation(const std::vector<int32_t>& a, int32_t domain_a,
                         const std::vector<int32_t>& b, int32_t domain_b);

/// Normalized mutual information in [0,1]: I(a;b)/sqrt(H(a)H(b)).
/// Used as our NCIE-style nonlinear correlation measure.
double NormalizedMutualInformation(const std::vector<int32_t>& a, int32_t domain_a,
                                   const std::vector<int32_t>& b, int32_t domain_b);

}  // namespace uae::util
