// Shared bench harness: flag parsing, dataset construction, estimator
// training, and table-formatted q-error reporting for the per-table/figure
// reproduction binaries.
//
// Defaults are scaled for a 2-core CPU box (see DESIGN.md §2); every knob can
// be raised via flags (--rows=, --train=, --epochs=, ...) to approach the
// paper's full-scale setup.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/servable.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "estimators/bayesnet.h"
#include "estimators/feedback_kde.h"
#include "estimators/histogram.h"
#include "estimators/kde.h"
#include "estimators/lr.h"
#include "estimators/mscn.h"
#include "estimators/sampling.h"
#include "estimators/spn_servable.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {

/// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv);
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key, const std::string& def) const;
  bool GetBool(const std::string& key, bool def) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Shared experiment configuration (defaults already CPU-scaled).
struct BenchConfig {
  size_t rows = 40000;
  size_t train_queries = 1200;
  size_t test_queries = 240;
  int uae_epochs = 5;
  int hidden = 64;
  int ps_samples = 200;
  int dps_samples = 24;
  int query_batch = 16;
  float lambda = 1e-4f;
  uint64_t seed = 42;

  static BenchConfig FromFlags(const Flags& flags);
  core::UaeConfig ToUaeConfig() const;
};

/// Builds one of the three single-table datasets by name: dmv|census|kdd.
data::Table BuildDataset(const std::string& name, size_t rows, uint64_t seed);

/// One fully evaluated estimator row of a results table.
struct ResultRow {
  std::string name;
  size_t size_bytes = 0;
  util::ErrorSummary in_workload;
  util::ErrorSummary random;
  double train_seconds = 0.0;
};

/// A test workload with its query and truth columns hoisted out once.
///
/// The harness evaluates MANY estimator rows against the SAME few workloads
/// (11 rows x 2 workloads per table run). The legacy path re-ran the
/// per-workload evaluation setup — extracting the query column for the
/// batched estimate call — on every row, even when the workload was reused
/// across rows and tables. Prepare once, evaluate many.
struct PreparedWorkload {
  std::vector<workload::Query> queries;
  std::vector<double> true_cards;
};
PreparedWorkload PrepareWorkload(const workload::Workload& workload);

/// Evaluates an estimator on both prepared test workloads through the batched
/// EstimateCards path so models with a batched hot path (core::Uae's
/// wavefront sampler, the SPN's parallel split) use it. Exactly one
/// EstimateCards batch call per workload; results are identical to the
/// legacy overload.
ResultRow EvaluateEstimator(const std::string& name,
                            const core::ServableModel& est,
                            const PreparedWorkload& test_in,
                            const PreparedWorkload& test_random);

/// Legacy convenience overload: prepares on the fly (setup re-done per call —
/// prefer preparing once when evaluating several estimators).
ResultRow EvaluateEstimator(const std::string& name,
                            const core::ServableModel& est,
                            const workload::Workload& test_in,
                            const workload::Workload& test_random);

/// Writes a BENCH_*.json document and a trailing newline to `path`. On
/// failure prints "cannot write <path>" to stderr and returns false.
bool WriteBenchJson(const std::string& path, const std::string& doc);

/// Prints the Table 2/3/4-shaped header + rows.
void PrintResultTable(const std::string& title, const std::vector<ResultRow>& rows);

/// Runs the full 11-estimator comparison of Tables 2-4 on one dataset.
/// Returns the rows (also printed).
std::vector<ResultRow> RunSingleTableComparison(const std::string& dataset,
                                                const BenchConfig& config);

}  // namespace uae::bench
