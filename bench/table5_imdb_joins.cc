// Reproduces Table 5: join estimation errors on the IMDB-star analog.
// Estimators: DeepDB (SPN over the join universe with fanout-aware leaves),
// MSCN+sampling (join featurization + materialized join sample), NeuroCard
// (= UAE-D trained on join samples), and UAE (hybrid). Workloads:
// JOB-light-ranges-focused analog (in-workload) and JOB-light analog (random
// table subsets, workload shift).
#include <cstdio>
#include <unordered_map>

#include "bench/harness.h"
#include "data/imdb_star.h"
#include "util/stopwatch.h"
#include "workload/executor.h"
#include "workload/join_workload.h"

namespace uae {
namespace {

using bench::BenchConfig;
using bench::Flags;

/// Per-query fanout-downscale weight vectors for SPN / sample estimators.
std::unordered_map<int, std::vector<float>> DownscaleWeights(
    const data::JoinUniverse& uni, const workload::JoinQuery& q) {
  std::unordered_map<int, std::vector<float>> weights;
  for (int fc : workload::DownscaleColumns(uni, q.table_mask)) {
    int32_t domain = uni.universe.column(fc).domain();
    std::vector<float> w(static_cast<size_t>(domain));
    for (int32_t v = 0; v < domain; ++v) w[static_cast<size_t>(v)] = 1.f / (v + 1);
    weights.emplace(fc, std::move(w));
  }
  return weights;
}

/// Weighted sample estimate of a join query over a materialized universe
/// sample — MSCN+sampling's extra feature and a DeepDB-style sanity anchor.
double SampleJoinCard(const data::JoinUniverse& uni, const data::Table& sample,
                      const workload::JoinQuery& q, size_t full_rows) {
  double weighted = workload::ExecuteWeightedCount(
      sample, q.pred, workload::DownscaleColumns(uni, q.table_mask));
  return weighted / static_cast<double>(sample.num_rows()) *
         static_cast<double>(full_rows);
}

struct JoinRow {
  std::string name;
  size_t size = 0;
  util::ErrorSummary focused;
  util::ErrorSummary random;
};

util::ErrorSummary EvalJoin(const workload::JoinWorkload& w,
                            const std::function<double(const workload::JoinQuery&)>& est) {
  std::vector<double> errors;
  errors.reserve(w.size());
  for (const auto& lq : w) {
    errors.push_back(workload::QError(est(lq.query), lq.card));
  }
  return util::Summarize(errors);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchConfig config = BenchConfig::FromFlags(flags);
  size_t titles = static_cast<size_t>(flags.GetInt("titles", 12000));
  size_t train_n = static_cast<size_t>(flags.GetInt("train", 700));
  size_t test_n = static_cast<size_t>(flags.GetInt("test", 140));

  data::ImdbStarConfig sc;
  sc.num_titles = titles;
  sc.seed = config.seed;
  data::JoinUniverse uni = data::BuildImdbStar(sc);
  std::printf("[setup] universe rows=%zu cols=%d tables=%d\n", uni.full_join_rows,
              uni.universe.num_cols(), uni.NumTables());

  workload::JoinGeneratorConfig focused_cfg;
  focused_cfg.focused = true;
  workload::JoinGeneratorConfig random_cfg;
  random_cfg.focused = false;
  std::unordered_set<uint64_t> seen;
  workload::JoinQueryGenerator train_gen(uni, focused_cfg, config.seed + 1);
  workload::JoinWorkload train = train_gen.GenerateLabeled(train_n, &seen);
  workload::JoinQueryGenerator focus_gen(uni, focused_cfg, config.seed + 2);
  workload::JoinWorkload test_focused = focus_gen.GenerateLabeled(test_n, &seen);
  workload::JoinQueryGenerator rand_gen(uni, random_cfg, config.seed + 3);
  workload::JoinWorkload test_random = rand_gen.GenerateLabeled(test_n, &seen);
  std::printf("[setup] workloads ready (train=%zu)\n", train.size());
  std::fflush(stdout);

  std::vector<JoinRow> rows;

  // --- DeepDB over the universe ------------------------------------------------
  {
    estimators::SpnServableConfig spn_cfg;
    spn_cfg.seed = config.seed;
    estimators::SpnServable spn(uni.universe, spn_cfg);
    auto est = [&](const workload::JoinQuery& q) {
      auto weights = DownscaleWeights(uni, q);
      return spn.EstimateSelectivityWeighted(q.pred, weights) *
             static_cast<double>(uni.full_join_rows);
    };
    rows.push_back({"DeepDB", spn.SizeBytes(), EvalJoin(test_focused, est),
                    EvalJoin(test_random, est)});
    std::printf("[done] DeepDB\n");
    std::fflush(stdout);
  }

  // --- MSCN+sampling with join features ----------------------------------------
  {
    util::Rng rng(config.seed + 11);
    size_t k = std::min<size_t>(1000, uni.universe.num_rows());
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(uni.universe.num_rows(), k);
    std::vector<data::Column> cols;
    for (int c = 0; c < uni.universe.num_cols(); ++c) {
      std::vector<int32_t> codes;
      codes.reserve(k);
      for (size_t r : picks) codes.push_back(uni.universe.column(c).code_at(r));
      cols.push_back(data::Column::FromCodes(uni.universe.column(c).name(),
                                             std::move(codes),
                                             uni.universe.column(c).domain()));
    }
    data::Table sample("universe_sample", std::move(cols));

    estimators::MscnConfig mc;
    mc.seed = config.seed;
    mc.extra_dim = uni.NumTables() + 2;
    estimators::MscnEstimator mscn(uni.universe, mc);
    auto extra_of = [&](const workload::JoinQuery& q) {
      std::vector<float> extra(static_cast<size_t>(uni.NumTables()) + 2, 0.f);
      for (int t = 0; t < uni.NumTables(); ++t) {
        if (q.table_mask & (1u << t)) extra[static_cast<size_t>(t)] = 1.f;
      }
      double est = SampleJoinCard(uni, sample, q, uni.full_join_rows);
      extra[static_cast<size_t>(uni.NumTables())] =
          static_cast<float>(est / static_cast<double>(uni.full_join_rows));
      extra[static_cast<size_t>(uni.NumTables()) + 1] =
          std::log1p(static_cast<float>(est));
      return extra;
    };
    workload::Workload flat;
    std::vector<std::vector<float>> extras;
    for (const auto& lq : train) {
      workload::LabeledQuery f;
      f.query = lq.query.pred;
      f.card = lq.card;
      f.selectivity = lq.card / static_cast<double>(uni.full_join_rows);
      flat.push_back(std::move(f));
      extras.push_back(extra_of(lq.query));
    }
    mscn.Train(flat, &extras);
    auto est = [&](const workload::JoinQuery& q) {
      // MSCN predicts join selectivity over the universe; rescale: the flat
      // training target was card/|J| so invert identically.
      return mscn.EstimateCardExtra(q.pred, extra_of(q)) /
             static_cast<double>(uni.universe.num_rows()) *
             static_cast<double>(uni.full_join_rows);
    };
    size_t size = mscn.SizeBytes() + k * static_cast<size_t>(uni.universe.num_cols()) *
                                         sizeof(int32_t);
    rows.push_back({"MSCN+sampling", size, EvalJoin(test_focused, est),
                    EvalJoin(test_random, est)});
    std::printf("[done] MSCN+sampling\n");
    std::fflush(stdout);
  }

  // --- NeuroCard (UAE-D on the join universe) ----------------------------------
  core::UaeConfig uc = config.ToUaeConfig();
  uc.factor_threshold = 64;  // Exercise column factorization (§4.6), as the
  uc.factor_bits = 5;        // paper does on IMDB's high-NDV columns.
  {
    util::Stopwatch t;
    core::Uae neurocard(uni, uc);
    neurocard.TrainDataEpochs(config.uae_epochs);
    auto est = [&](const workload::JoinQuery& q) {
      return neurocard.EstimateJoinCard(q);
    };
    rows.push_back({"NeuroCard", neurocard.SizeBytes(), EvalJoin(test_focused, est),
                    EvalJoin(test_random, est)});
    std::printf("[done] NeuroCard (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }

  // --- UAE (hybrid on data + join queries) -------------------------------------
  {
    util::Stopwatch t;
    core::UaeConfig hybrid_uc = uc;
    hybrid_uc.lambda = static_cast<float>(flags.GetDouble("lambda", 10.0));  // §5.1.4.
    core::Uae uae(uni, hybrid_uc);
    uae.TrainHybridEpochs(train, config.uae_epochs);
    auto est = [&](const workload::JoinQuery& q) { return uae.EstimateJoinCard(q); };
    rows.push_back({"UAE", uae.SizeBytes(), EvalJoin(test_focused, est),
                    EvalJoin(test_random, est)});
    std::printf("[done] UAE (%.0fs)\n", t.ElapsedSeconds());
    std::fflush(stdout);
  }

  std::printf("\n=== Table 5: Estimation Errors on IMDB-star (join queries) ===\n");
  std::printf("%-16s %8s | %-32s | %-32s\n", "Model", "Size",
              "JOB-light-ranges-focused", "JOB-light (random)");
  std::printf("%-16s %8s | %10s %10s %10s | %10s %10s %10s\n", "", "", "Median",
              "95th", "MAX", "Median", "95th", "MAX");
  for (const auto& r : rows) {
    std::printf("%-16s %7zuK | %10s %10s %10s | %10s %10s %10s\n", r.name.c_str(),
                r.size >> 10, util::FormatError(r.focused.median).c_str(),
                util::FormatError(r.focused.p95).c_str(),
                util::FormatError(r.focused.max).c_str(),
                util::FormatError(r.random.median).c_str(),
                util::FormatError(r.random.p95).c_str(),
                util::FormatError(r.random.max).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace uae

int main(int argc, char** argv) { return uae::Run(argc, argv); }
