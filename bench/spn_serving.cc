// SPN serving benchmark: the query-driven SPN backend head-to-head with the
// UAE on the same table and workload, plus the gated fine-tune accuracy win.
//
// Scenario:
//   1. a correlated-pair table (column b tracks column a up to small noise)
//      where attribute-value independence is systematically wrong on
//      conjunctive band queries;
//   2. a deliberately coarse "stale" SPN (an impossible correlation threshold
//      forces a pure product factorization) starts serving through
//      serve::EstimationService;
//   3. a clone is fine-tuned on a labeled train workload through the
//      core::ServableModel::FineTune hook (multiplicative query-driven
//      updates to sum weights and leaf histograms) and hot-swapped in;
//   4. a UAE-D model trains on the same table for the latency/accuracy
//      head-to-head.
//
// Emits BENCH_spn.json in the compare_bench.py schema. The gated entry is
// `spn/finetune_accuracy`: its `speedup_vs_ref` is the stale SPN's median
// q-error on the HELD-OUT test workload divided by the fine-tuned clone's —
// a machine-independent accuracy ratio gated with the usual >25% regression
// rule plus an absolute >=1.5x improvement floor. `spn/latency_vs_uae` and
// `spn/accuracy_vs_uae` report the head-to-head (informational in the JSON:
// wall-clock does not transfer across machines, and the UAE's accuracy moves
// with its training budget).
//
// Self-checks (non-zero exit, so the run step doubles as a smoke test): the
// fine-tune must improve the held-out median (the 1.5x floor itself is
// enforced by the CI gate against the committed baseline), the serving
// round-trip must publish generation 2 and answer bitwise from the tuned
// clone, the original must ride through the fine-tune bitwise untouched, and
// building the SPN twice must be bitwise deterministic.
//
// Usage:
//   bench_spn_serving [--out=BENCH_spn.json] [--rows=8000] [--train=96]
//                     [--test=96] [--steps=1024] [--uae-epochs=1]
//                     [--reps=5] [--seed=21]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/column.h"
#include "data/table.h"
#include "estimators/spn_servable.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_spn.json";
  int rows = 8000;
  int train = 96;       ///< Labeled fine-tune feedback queries.
  int test = 96;        ///< Held-out labeled test queries.
  int steps = 1024;     ///< FineTuneSpec::query_steps.
  int uae_epochs = 1;   ///< UAE-D data epochs for the head-to-head.
  int reps = 5;         ///< Latency measurement repetitions.
  uint64_t seed = 21;
};

/// Two strongly coupled columns: b = a + noise in [-2, 2]. Conjunctive range
/// queries on (a, b) are where the product-only SPN is wrong by roughly the
/// band width — the headroom the query-driven fine-tune must win back.
data::Table MakeCorrelatedPair(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int32_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(rng.UniformInt(0, 63));
    b[i] = std::clamp<int32_t>(
        a[i] + static_cast<int32_t>(rng.UniformInt(0, 4)) - 2, 0, 63);
  }
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("a", std::move(a), 64));
  cols.push_back(data::Column::FromCodes("b", std::move(b), 64));
  return data::Table("corr_pair", std::move(cols));
}

workload::Workload BandWorkload(const data::Table& table, int count,
                                uint64_t seed) {
  workload::GeneratorConfig gc;
  gc.min_filters = 2;
  gc.max_filters = 2;
  gc.center_min = 0.6;
  gc.center_max = 0.9;
  gc.target_volume = 0.1;
  workload::QueryGenerator gen(table, gc, seed);
  return gen.GenerateLabeled(static_cast<size_t>(count), nullptr);
}

double MedianQError(const core::ServableModel& model,
                    const workload::Workload& test) {
  std::vector<double> errors = workload::EvaluateQErrorsBatched(
      test, [&](std::span<const workload::Query> qs) {
        return model.EstimateCards(qs);
      });
  return util::Quantile(std::move(errors), 0.5);
}

/// Batched estimation latency in ns per query, best of `reps` passes.
double NsPerOp(const core::ServableModel& model,
               const std::vector<workload::Query>& queries, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    const std::vector<double> cards = model.EstimateCards(queries);
    const double ns =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(queries.size());
    if (cards.size() == queries.size() && ns < best) best = ns;
  }
  return best;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = std::max<int>(1000, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.train = std::max<int>(16, static_cast<int>(flags.GetInt("train", opt.train)));
  opt.test = std::max<int>(16, static_cast<int>(flags.GetInt("test", opt.test)));
  opt.steps = std::max<int>(1, static_cast<int>(flags.GetInt("steps", opt.steps)));
  opt.uae_epochs = std::max<int>(1, static_cast<int>(flags.GetInt("uae-epochs", opt.uae_epochs)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(opt.seed)));

  data::Table table = MakeCorrelatedPair(static_cast<size_t>(opt.rows), opt.seed);
  const workload::Workload train = BandWorkload(table, opt.train, opt.seed + 80);
  const workload::Workload test = BandWorkload(table, opt.test, opt.seed + 686);
  std::vector<workload::Query> test_queries;
  for (const auto& lq : test) test_queries.push_back(lq.query);

  // ---- Stale SPN: product-only factorization, then serve. -------------------
  estimators::SpnServableConfig stale_config;
  stale_config.corr_threshold = 2.0;  // Never split: pure independence.
  stale_config.min_instances = 256;
  util::Stopwatch build_timer;
  auto stale = std::make_shared<estimators::SpnServable>(table, stale_config);
  const double spn_build_seconds = build_timer.ElapsedSeconds();
  const std::string before = stale->StructureSignature();
  if (estimators::SpnServable(table, stale_config).StructureSignature() !=
      before) {
    std::fprintf(stderr, "SELF-CHECK FAILED: SPN build is not bit-deterministic\n");
    return 1;
  }
  const double stale_median = MedianQError(*stale, test);

  serve::EstimationService service(stale);

  // ---- Query-driven fine-tune through the ServableModel hook. ---------------
  auto tuned = stale->CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = opt.steps;
  util::Stopwatch tune_timer;
  const size_t used = tuned->FineTune(train, spec);
  const double tune_seconds = tune_timer.ElapsedSeconds();
  if (used == 0) {
    std::fprintf(stderr, "SELF-CHECK FAILED: fine-tune consumed no feedback\n");
    return 1;
  }
  if (stale->StructureSignature() != before) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: fine-tuning the clone moved bits in the "
                 "serving original\n");
    return 1;
  }
  const double tuned_median = MedianQError(*tuned, test);
  const double improvement = stale_median / tuned_median;
  std::printf("fine-tune: %zu feedback queries, %d steps in %.3fs; held-out "
              "median q-error %.3f -> %.3f (%.2fx)\n",
              used, opt.steps, tune_seconds, stale_median, tuned_median,
              improvement);
  if (improvement <= 1.0) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: fine-tune did not improve the held-out "
                 "median (%.3f -> %.3f)\n",
                 stale_median, tuned_median);
    return 1;
  }

  // Serving round-trip: hot-swap the tuned clone, answers must be bitwise the
  // clone's own.
  std::shared_ptr<const core::ServableModel> tuned_shared = std::move(tuned);
  service.PublishSnapshot(tuned_shared);
  const serve::ServeResult res = service.Estimate(test_queries[0]);
  if (res.generation != 2 ||
      res.card != tuned_shared->EstimateCard(test_queries[0])) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: serving round-trip did not answer from "
                 "the tuned snapshot (generation %llu)\n",
                 static_cast<unsigned long long>(res.generation));
    return 1;
  }

  // ---- Head-to-head: UAE-D on the same table. -------------------------------
  core::UaeConfig uc;
  uc.hidden = 32;
  uc.ps_samples = 128;
  uc.seed = opt.seed;
  auto uae = std::make_shared<core::Uae>(table, uc);
  util::Stopwatch uae_timer;
  uae->TrainDataEpochs(opt.uae_epochs);
  const double uae_train_seconds = uae_timer.ElapsedSeconds();
  const double uae_median = MedianQError(*uae, test);

  const double spn_ns = NsPerOp(*tuned_shared, test_queries, opt.reps);
  const double uae_ns = NsPerOp(*uae, test_queries, opt.reps);
  std::printf("head-to-head: SPN %.0f ns/op median q-error %.3f | UAE-D "
              "(%d epochs, %.1fs) %.0f ns/op median q-error %.3f\n",
              spn_ns, tuned_median, opt.uae_epochs, uae_train_seconds, uae_ns,
              uae_median);

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("rows", opt.rows);
  w.Member("train", opt.train);
  w.Member("test", opt.test);
  w.Member("steps", opt.steps);
  w.Member("uae_epochs", opt.uae_epochs);
  w.Member("reps", opt.reps);
  w.Member("seed", static_cast<int64_t>(opt.seed));
#ifdef NDEBUG
  w.Member("optimized_build", true);
#else
  w.Member("optimized_build", false);
#endif
  w.EndObject();
  w.Key("benchmarks").BeginArray();
  // Gated: accuracy win of the fine-tuned SPN over the stale one on the
  // held-out workload. Deterministic (single-threaded fine-tune, per-query
  // purity), so it is machine-independent.
  w.BeginObject();
  w.Member("name", "spn/finetune_accuracy");
  w.Member("stale_median_qerror", stale_median);
  w.Member("tuned_median_qerror", tuned_median);
  w.Member("feedback_used", static_cast<int64_t>(used));
  w.Member("published_generation", static_cast<int64_t>(res.generation));
  w.Member("speedup_vs_ref", improvement);
  w.EndObject();
  // Informational: wall-clock does not transfer across machines.
  w.BeginObject();
  w.Member("name", "spn/latency_vs_uae");
  w.Member("ns_per_op", spn_ns);
  w.Member("uae_ns_per_op", uae_ns);
  w.Member("spn_build_seconds", spn_build_seconds);
  w.Member("finetune_seconds", tune_seconds);
  w.Member("uae_train_seconds", uae_train_seconds);
  w.EndObject();
  // Informational: the UAE side moves with its training budget.
  w.BeginObject();
  w.Member("name", "spn/accuracy_vs_uae");
  w.Member("spn_median_qerror", tuned_median);
  w.Member("uae_median_qerror", uae_median);
  w.EndObject();
  w.EndArray();
  w.EndObject();

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s\n", opt.out.c_str());
  return 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
