#include "bench/harness.h"

#include <cstdio>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace uae::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!util::StartsWith(arg, "--")) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg.substr(2), "true");
    } else {
      kv_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return std::stoll(v);
  }
  return def;
}

double Flags::GetDouble(const std::string& key, double def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return std::stod(v);
  }
  return def;
}

std::string Flags::GetString(const std::string& key, const std::string& def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return def;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v == "true" || v == "1";
  }
  return def;
}

BenchConfig BenchConfig::FromFlags(const Flags& flags) {
  BenchConfig c;
  c.rows = static_cast<size_t>(flags.GetInt("rows", static_cast<int64_t>(c.rows)));
  c.train_queries = static_cast<size_t>(
      flags.GetInt("train", static_cast<int64_t>(c.train_queries)));
  c.test_queries = static_cast<size_t>(
      flags.GetInt("test", static_cast<int64_t>(c.test_queries)));
  c.uae_epochs = static_cast<int>(flags.GetInt("epochs", c.uae_epochs));
  c.hidden = static_cast<int>(flags.GetInt("hidden", c.hidden));
  c.ps_samples = static_cast<int>(flags.GetInt("ps", c.ps_samples));
  c.dps_samples = static_cast<int>(flags.GetInt("dps", c.dps_samples));
  c.query_batch = static_cast<int>(flags.GetInt("qbatch", c.query_batch));
  c.lambda = static_cast<float>(flags.GetDouble("lambda", c.lambda));
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(c.seed)));
  return c;
}

core::UaeConfig BenchConfig::ToUaeConfig() const {
  core::UaeConfig uc;
  uc.hidden = hidden;
  uc.blocks = 1;
  uc.ps_samples = ps_samples;
  uc.dps_samples = dps_samples;
  uc.query_batch = query_batch;
  uc.lambda = lambda;
  uc.seed = seed;
  return uc;
}

data::Table BuildDataset(const std::string& name, size_t rows, uint64_t seed) {
  if (name == "dmv") return data::SyntheticDmv(rows, seed);
  if (name == "census") return data::SyntheticCensus(rows, seed);
  if (name == "kdd") return data::SyntheticKdd(rows, seed);
  UAE_CHECK(false) << "unknown dataset: " << name;
  return data::TinyCorrelated(10, 1);
}

PreparedWorkload PrepareWorkload(const workload::Workload& workload) {
  PreparedWorkload prep;
  prep.queries.reserve(workload.size());
  prep.true_cards.reserve(workload.size());
  for (const auto& lq : workload) {
    prep.queries.push_back(lq.query);
    prep.true_cards.push_back(lq.card);
  }
  return prep;
}

namespace {

util::ErrorSummary SummarizePrepared(const core::ServableModel& est,
                                     const PreparedWorkload& prep) {
  std::vector<double> cards = est.EstimateCards(prep.queries);
  UAE_CHECK_EQ(cards.size(), prep.true_cards.size());
  std::vector<double> errors;
  errors.reserve(cards.size());
  for (size_t i = 0; i < cards.size(); ++i) {
    errors.push_back(workload::QError(cards[i], prep.true_cards[i]));
  }
  return util::Summarize(errors);
}

}  // namespace

ResultRow EvaluateEstimator(const std::string& name,
                            const core::ServableModel& est,
                            const PreparedWorkload& test_in,
                            const PreparedWorkload& test_random) {
  ResultRow row;
  row.name = name;
  row.size_bytes = est.SizeBytes();
  row.in_workload = SummarizePrepared(est, test_in);
  row.random = SummarizePrepared(est, test_random);
  return row;
}

ResultRow EvaluateEstimator(const std::string& name,
                            const core::ServableModel& est,
                            const workload::Workload& test_in,
                            const workload::Workload& test_random) {
  return EvaluateEstimator(name, est, PrepareWorkload(test_in),
                           PrepareWorkload(test_random));
}

bool WriteBenchJson(const std::string& path, const std::string& doc) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(doc.data(), 1, doc.size(), fp);
  std::fputc('\n', fp);
  std::fclose(fp);
  return true;
}

void PrintResultTable(const std::string& title, const std::vector<ResultRow>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-16s %8s | %41s | %41s\n", "Model", "Size", "In-workload Queries",
              "Random Queries");
  std::printf("%-16s %8s | %9s %9s %9s %9s | %9s %9s %9s %9s\n", "", "", "Mean",
              "Median", "95th", "MAX", "Mean", "Median", "95th", "MAX");
  for (const auto& row : rows) {
    std::printf("%s\n",
                workload::FormatResultRow(row.name, row.size_bytes, row.in_workload,
                                          row.random)
                    .c_str());
  }
  std::fflush(stdout);
}

std::vector<ResultRow> RunSingleTableComparison(const std::string& dataset,
                                                const BenchConfig& config) {
  std::printf("[setup] dataset=%s rows=%zu train=%zu test=%zu epochs=%d\n",
              dataset.c_str(), config.rows, config.train_queries, config.test_queries,
              config.uae_epochs);
  data::Table table = BuildDataset(dataset, config.rows, config.seed);
  workload::TrainTestWorkloads w = workload::GenerateTrainTest(
      table, config.train_queries, config.test_queries, config.seed + 1);
  // Hoisted once for all estimator rows (see PreparedWorkload).
  PreparedWorkload prep_in = PrepareWorkload(w.test_in_workload);
  PreparedWorkload prep_random = PrepareWorkload(w.test_random);
  std::printf("[setup] workloads ready\n");
  std::fflush(stdout);

  std::vector<ResultRow> rows;
  util::Stopwatch total;

  // --- Query-driven ---------------------------------------------------------
  {
    util::Stopwatch t;
    estimators::LrEstimator lr(table);
    lr.Train(w.train);
    auto row = EvaluateEstimator("LR", lr, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
  }
  {
    util::Stopwatch t;
    estimators::MscnConfig mc;
    mc.seed = config.seed;
    estimators::MscnEstimator mscn(table, mc);
    mscn.Train(w.train);
    auto row = EvaluateEstimator("MSCN-base", mscn, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
  }
  core::UaeConfig uc = config.ToUaeConfig();
  {
    util::Stopwatch t;
    core::Uae uae_q(table, uc);
    int steps = config.uae_epochs *
                std::max<int>(1, static_cast<int>(config.train_queries) /
                                     config.query_batch);
    uae_q.TrainQuerySteps(w.train, steps);
    auto row = EvaluateEstimator("UAE-Q", uae_q, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[done] UAE-Q (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }

  // --- Data-driven ----------------------------------------------------------
  // Sample ratios follow the paper's §5.1.4 settings (0.2% DMV, 9% Census,
  // 4.6% Kddcup98) rather than byte-budget matching: at our reduced row
  // counts the model would otherwise dwarf the data, which the full-scale
  // setup never allows.
  double sample_frac = dataset == "dmv" ? 0.002 : (dataset == "census" ? 0.09 : 0.046);
  size_t sample_rows =
      std::max<size_t>(64, static_cast<size_t>(sample_frac *
                                               static_cast<double>(table.num_rows())));
  {
    util::Stopwatch t;
    estimators::SamplingEstimator sampling(table, sample_frac, config.seed);
    auto row = EvaluateEstimator("Sampling", sampling, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
  }
  {
    util::Stopwatch t;
    estimators::BayesNetEstimator bn(table, 20000, 0.1, config.seed);
    auto row = EvaluateEstimator("BayesNet", bn, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[done] BayesNet (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }
  size_t kde_sample = std::max<size_t>(200, sample_rows);
  {
    util::Stopwatch t;
    estimators::KdeEstimator kde(table, kde_sample, config.seed);
    auto row = EvaluateEstimator("KDE", kde, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
  }
  {
    util::Stopwatch t;
    estimators::SpnServableConfig sc;
    sc.seed = config.seed;
    estimators::SpnServable spn(table, sc);
    auto row = EvaluateEstimator("DeepDB", spn, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[done] DeepDB (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }
  {
    util::Stopwatch t;
    core::Uae naru(table, uc);
    naru.TrainDataEpochs(config.uae_epochs);
    auto row = EvaluateEstimator("Naru", naru, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[done] Naru (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }

  // --- Hybrid ---------------------------------------------------------------
  {
    util::Stopwatch t;
    estimators::MscnConfig mc;
    mc.seed = config.seed;
    estimators::MscnSamplingEstimator ms(table, 1000, mc);
    ms.Train(w.train);
    auto row = EvaluateEstimator("MSCN+sampling", ms, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
  }
  {
    util::Stopwatch t;
    estimators::FeedbackKdeEstimator fkde(table, kde_sample, config.seed);
    fkde.TuneBandwidths(w.train, /*epochs=*/4);
    auto row = EvaluateEstimator("Feedback-KDE", fkde, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[done] Feedback-KDE (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }
  {
    util::Stopwatch t;
    core::Uae uae(table, uc);
    uae.TrainHybridEpochs(w.train, config.uae_epochs);
    auto row = EvaluateEstimator("UAE", uae, prep_in, prep_random);
    row.train_seconds = t.ElapsedSeconds();
    rows.push_back(row);
    std::printf("[done] UAE (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }

  std::printf("[total] %.0fs\n", total.ElapsedSeconds());
  return rows;
}

}  // namespace uae::bench
