// Quantile summaries for q-error reporting (mean / median / 95th / max rows of
// the paper's tables).
#pragma once

#include <string>
#include <vector>

namespace uae::util {

/// Linear-interpolation quantile of an unsorted sample; q in [0,1].
double Quantile(std::vector<double> xs, double q);

/// Same interpolation over an ALREADY-SORTED sample — no copy, no sort.
/// Callers that need several quantiles of one sample sort once and use this
/// (Summarize does); the result is bitwise identical to Quantile().
double QuantileSorted(const std::vector<double>& sorted, double q);

/// The four statistics every results table in the paper reports.
struct ErrorSummary {
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  size_t count = 0;
};

ErrorSummary Summarize(const std::vector<double>& errors);

/// Compact number formatting like the paper's tables (e.g. 1.058, 2.1e4).
std::string FormatError(double v);

}  // namespace uae::util
