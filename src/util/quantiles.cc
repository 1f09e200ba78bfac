#include "util/quantiles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/common.h"

namespace uae::util {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  UAE_CHECK(q >= 0.0 && q <= 1.0);
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  // An exact position returns its element: interpolating would compute
  // inf * 0.0 = NaN next to an infinite neighbour.
  if (frac == 0.0) return sorted[lo];
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return QuantileSorted(xs, q);
}

ErrorSummary Summarize(const std::vector<double>& errors) {
  ErrorSummary s;
  s.count = errors.size();
  if (errors.empty()) return s;
  double total = 0.0;
  double mx = errors[0];
  for (double e : errors) {
    total += e;
    mx = std::max(mx, e);
  }
  s.mean = total / static_cast<double>(errors.size());
  // One copy + one sort for all three quantiles (this used to call
  // Quantile() three times, copying and sorting the sample each time).
  std::vector<double> sorted = errors;
  std::sort(sorted.begin(), sorted.end());
  s.median = QuantileSorted(sorted, 0.5);
  s.p95 = QuantileSorted(sorted, 0.95);
  s.p99 = QuantileSorted(sorted, 0.99);
  s.max = mx;
  return s;
}

std::string FormatError(double v) {
  char buf[64];
  if (std::isnan(v)) {
    // NaN used to print as "inf", hiding poisoned summaries behind a value
    // that reads as "merely overflowed".
    std::snprintf(buf, sizeof(buf), "nan");
  } else if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), v < 0 ? "-inf" : "inf");
  } else if (v >= 1e4) {
    std::snprintf(buf, sizeof(buf), "%.1e", v);
  } else if (v >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

}  // namespace uae::util
