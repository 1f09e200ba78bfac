#include "util/mathutil.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/common.h"

namespace uae::util {

double LogSumExp(const std::vector<double>& xs) {
  if (xs.empty()) return -std::numeric_limits<double>::infinity();
  double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double x : xs) s += std::exp(x - m);
  return m + std::log(s);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalPdf(double x) {
  static const double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double Skewness(const std::vector<double>& xs) {
  if (xs.size() < 3) return 0.0;
  double m = Mean(xs);
  double m2 = 0.0, m3 = 0.0;
  for (double x : xs) {
    double d = x - m;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(xs.size());
  m3 /= static_cast<double>(xs.size());
  if (m2 <= 0.0) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

double Entropy(const std::vector<int32_t>& codes, int32_t domain) {
  if (codes.empty()) return 0.0;
  std::vector<int64_t> counts(static_cast<size_t>(domain), 0);
  for (int32_t c : codes) {
    UAE_DCHECK(c >= 0 && c < domain);
    ++counts[static_cast<size_t>(c)];
  }
  double n = static_cast<double>(codes.size());
  double h = 0.0;
  for (int64_t c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / n;
    h -= p * std::log(p);
  }
  return h;
}

double MutualInformation(const std::vector<int32_t>& a, int32_t domain_a,
                         const std::vector<int32_t>& b, int32_t domain_b) {
  UAE_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  std::unordered_map<int64_t, int64_t> joint;
  joint.reserve(a.size() / 4 + 8);
  std::vector<int64_t> ca(static_cast<size_t>(domain_a), 0);
  std::vector<int64_t> cb(static_cast<size_t>(domain_b), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    ++ca[static_cast<size_t>(a[i])];
    ++cb[static_cast<size_t>(b[i])];
    ++joint[static_cast<int64_t>(a[i]) * domain_b + b[i]];
  }
  double n = static_cast<double>(a.size());
  double mi = 0.0;
  for (const auto& [key, cnt] : joint) {
    int64_t va = key / domain_b;
    int64_t vb = key % domain_b;
    double pab = static_cast<double>(cnt) / n;
    double pa = static_cast<double>(ca[static_cast<size_t>(va)]) / n;
    double pb = static_cast<double>(cb[static_cast<size_t>(vb)]) / n;
    mi += pab * std::log(pab / (pa * pb));
  }
  return std::max(0.0, mi);
}

double NormalizedMutualInformation(const std::vector<int32_t>& a, int32_t domain_a,
                                   const std::vector<int32_t>& b, int32_t domain_b) {
  double ha = Entropy(a, domain_a);
  double hb = Entropy(b, domain_b);
  if (ha <= 0.0 || hb <= 0.0) return 0.0;
  return MutualInformation(a, domain_a, b, domain_b) / std::sqrt(ha * hb);
}

}  // namespace uae::util
