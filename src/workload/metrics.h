// Q-error (Eq. 6) and evaluation helpers producing the mean/median/95th/max
// rows of the paper's result tables.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/quantiles.h"
#include "workload/query.h"

namespace uae::workload {

/// Q-error on cardinalities with a floor of 1 (the convention of Naru/MSCN):
/// max(max(est,1)/max(truth,1), max(truth,1)/max(est,1)); +inf when either
/// argument is NaN. The one q-error formula of the repo.
double QError(double est_card, double true_card);

/// Evaluates a batch estimate function over a labeled workload: hands the
/// whole query list to `estimate_batch` at once, so a model's batched hot
/// path (core::ServableModel::EstimateCards) does the work. Q-errors are
/// returned in workload order.
using BatchEstimateFn =
    std::function<std::vector<double>(std::span<const Query>)>;
std::vector<double> EvaluateQErrorsBatched(const Workload& workload,
                                           const BatchEstimateFn& estimate_batch);

/// Pretty-prints one table row: "<name>  <size>  mean median p95 max".
std::string FormatResultRow(const std::string& name, size_t size_bytes,
                            const util::ErrorSummary& in_workload,
                            const util::ErrorSummary& random);

/// Log10-bucketed selectivity histogram (Figure 3).
struct SelectivityHistogram {
  std::vector<int> bucket_counts;  ///< Buckets for log10(sel) in [-8, 0).
  int total = 0;
};
SelectivityHistogram SelectivityDistribution(const Workload& w);
std::string FormatSelectivityHistogram(const SelectivityHistogram& h);

}  // namespace uae::workload
