#include "workload/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace uae::workload {

double QError(double est_card, double true_card) {
  const double e = std::max(est_card, 1.0);
  const double t = std::max(true_card, 1.0);
  const double q = std::max(e / t, t / e);
  // A NaN argument (or inf/inf) scores as the worst error rather than a NaN
  // that would poison sorts, quantiles and routing EMAs downstream.
  return std::isnan(q) ? std::numeric_limits<double>::infinity() : q;
}

std::vector<double> EvaluateQErrorsBatched(const Workload& workload,
                                           const BatchEstimateFn& estimate_batch) {
  std::vector<Query> queries;
  queries.reserve(workload.size());
  for (const auto& lq : workload) queries.push_back(lq.query);
  std::vector<double> cards = estimate_batch(queries);
  UAE_CHECK_EQ(cards.size(), workload.size());
  std::vector<double> errors;
  errors.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    errors.push_back(QError(cards[i], workload[i].card));
  }
  return errors;
}

std::string FormatResultRow(const std::string& name, size_t size_bytes,
                            const util::ErrorSummary& in_workload,
                            const util::ErrorSummary& random) {
  std::string size_str =
      size_bytes >= (1u << 20)
          ? util::StrFormat("%.1fMB", static_cast<double>(size_bytes) / (1 << 20))
          : util::StrFormat("%zuKB", size_bytes >> 10);
  return util::StrFormat(
      "%-16s %8s | %9s %9s %9s %9s | %9s %9s %9s %9s", name.c_str(),
      size_str.c_str(), util::FormatError(in_workload.mean).c_str(),
      util::FormatError(in_workload.median).c_str(),
      util::FormatError(in_workload.p95).c_str(),
      util::FormatError(in_workload.max).c_str(),
      util::FormatError(random.mean).c_str(),
      util::FormatError(random.median).c_str(),
      util::FormatError(random.p95).c_str(), util::FormatError(random.max).c_str());
}

SelectivityHistogram SelectivityDistribution(const Workload& w) {
  SelectivityHistogram h;
  h.bucket_counts.assign(8, 0);
  for (const auto& lq : w) {
    double sel = std::max(lq.selectivity, 1e-12);
    int bucket = static_cast<int>(std::floor(std::log10(sel))) + 8;  // [-8,0) -> [0,8)
    bucket = std::clamp(bucket, 0, 7);
    ++h.bucket_counts[static_cast<size_t>(bucket)];
    ++h.total;
  }
  return h;
}

std::string FormatSelectivityHistogram(const SelectivityHistogram& h) {
  std::string out;
  for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
    double lo = -8.0 + static_cast<double>(b);
    double frac = h.total ? 100.0 * h.bucket_counts[b] / h.total : 0.0;
    out += util::StrFormat("  sel in [1e%+.0f, 1e%+.0f): %5.1f%% (%d)\n", lo, lo + 1,
                           frac, h.bucket_counts[b]);
  }
  return out;
}

}  // namespace uae::workload
