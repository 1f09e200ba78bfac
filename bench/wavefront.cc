// Wavefront sampler throughput: the per-query progressive sampler (one
// BuildTargets + ProgressiveSample call per query, the pre-wavefront serving
// path) against the batched wavefront plane (EstimateCards: all in-flight
// query x sample lanes advance one column per step through shared trunk
// forwards), plus an ungated wave-width sweep.
//
// Emits BENCH_wavefront.json in the BENCH_kernels.json schema. The gated
// entry is `wavefront/estimate_throughput`: its `speedup_vs_ref` is wavefront
// qps divided by the per-query qps measured in the same process, so the ratio
// transfers across machines and bench/compare_bench.py applies the usual >25%
// regression rule plus the 5x acceptance floor. Because the wavefront is
// parity-pinned (tests/sampler_conformance_test.cc), the bench also hard-fails
// if the two paths ever disagree bitwise on the measured workload.
//
// All aggregation routes through util/quantiles (median over reps) — no local
// quantile code.
//
// Usage:
//   bench_wavefront [--out=BENCH_wavefront.json] [--rows=4000] [--queries=64]
//                   [--ps-samples=512] [--reps=3]
//
// The default sample count (512) is the serving-realistic regime (the paper
// runs progressive sampling with 2000 samples on DMV); prefix deduplication
// makes wavefront cost grow sublinearly in the sample count, which is where
// the gated speedup comes from.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/targets.h"
#include "core/uae.h"
#include "core/wavefront.h"
#include "data/synthetic.h"
#include "util/json.h"
#include "util/mathutil.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_wavefront.json";
  int rows = 4000;
  int queries = 64;
  int ps_samples = 512;
  int reps = 3;  ///< Timed repetitions; the median qps is kept.
};

struct Result {
  std::string name;
  double ns_per_op = 0.0;
  double qps = 0.0;
  double speedup_vs_ref = 0.0;  ///< 0 when the entry is ungated.
};

/// Median-of-reps qps for one estimation mode over `n` queries.
template <typename Fn>
double MeasureQps(int reps, int n, const Fn& run) {
  std::vector<double> qps;
  qps.reserve(static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    util::Stopwatch timer;
    run();
    qps.push_back(static_cast<double>(n) / timer.ElapsedSeconds());
  }
  return util::Quantile(qps, 0.5);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = std::max<int>(500, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.queries = std::max<int>(8, static_cast<int>(flags.GetInt("queries", opt.queries)));
  opt.ps_samples = std::max<int>(8, static_cast<int>(flags.GetInt("ps-samples", opt.ps_samples)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));

  // Model under measurement: serving cost is what matters, so train briefly.
  data::Table table = data::SyntheticDmv(static_cast<size_t>(opt.rows), 11);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = opt.ps_samples;
  config.seed = 7;
  core::Uae uae(table, config);
  uae.TrainDataEpochs(1);

  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, 37);
  std::vector<workload::Query> queries;
  queries.reserve(static_cast<size_t>(opt.queries));
  for (int i = 0; i < opt.queries; ++i) queries.push_back(gen.Generate());

  const int default_width = core::WavefrontConfig{}.wave_width;
  std::printf("wavefront bench: %d queries x %d samples, width %d, %d reps\n",
              opt.queries, opt.ps_samples, default_width, opt.reps);

  // (a) Reference: the per-query progressive sampler, one call per query.
  std::vector<double> per_query_cards(queries.size());
  double legacy_qps = MeasureQps(opt.reps, opt.queries, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      per_query_cards[i] = uae.EstimateCard(queries[i]);
    }
  });
  std::printf("  per-query       : %8.1f q/s\n", legacy_qps);

  // (b) Wavefront: the batched plane behind EstimateCards.
  std::vector<double> wave_cards;
  double wave_qps = MeasureQps(opt.reps, opt.queries, [&] {
    wave_cards = uae.EstimateCards(queries);
  });
  std::printf("  wavefront       : %8.1f q/s  (%.2fx per-query)\n", wave_qps,
              wave_qps / legacy_qps);

  // The speedup only counts if the answers are the same answers: the parity
  // contract from the conformance suite, re-checked on the measured workload.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (wave_cards[i] != per_query_cards[i]) {
      std::fprintf(stderr,
                   "PARITY VIOLATION: query %zu wavefront %.17g per-query %.17g\n",
                   i, wave_cards[i], per_query_cards[i]);
      return 1;
    }
  }

  // (c) Ungated width sweep straight on the frozen backend.
  std::vector<core::QueryTargets> targets;
  targets.reserve(queries.size());
  for (const auto& q : queries) {
    targets.push_back(core::BuildTargets(q, table, uae.schema()));
  }
  auto backend = uae.FrozenBackend();
  std::vector<Result> results;
  char name[64];
  std::snprintf(name, sizeof(name), "wavefront/per_query_s%d", opt.ps_samples);
  results.push_back({name, 1e9 / legacy_qps, legacy_qps, 0.0});
  std::snprintf(name, sizeof(name), "wavefront/estimate_throughput");
  results.push_back({name, 1e9 / wave_qps, wave_qps, wave_qps / legacy_qps});
  for (int width : {1, 8, 32}) {
    double width_qps = MeasureQps(opt.reps, opt.queries, [&] {
      std::vector<util::Rng> rngs;
      rngs.reserve(queries.size());
      for (const auto& q : queries) {
        rngs.push_back(util::Rng(util::SplitMix64(
            config.seed ^ util::SplitMix64(q.Fingerprint()))));
      }
      core::WavefrontConfig wc;
      wc.num_samples = opt.ps_samples;
      wc.wave_width = width;
      (void)core::WavefrontSampleSelectivities(*backend, targets, rngs, wc);
    });
    std::printf("  width %-2d        : %8.1f q/s\n", width, width_qps);
    std::snprintf(name, sizeof(name), "wavefront/width_%d", width);
    results.push_back({name, 1e9 / width_qps, width_qps, 0.0});
  }

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("rows", opt.rows);
  w.Member("queries", opt.queries);
  w.Member("ps_samples", opt.ps_samples);
  w.Member("wave_width", default_width);
  w.Member("reps", opt.reps);
#ifdef NDEBUG
  w.Member("optimized_build", true);
#else
  w.Member("optimized_build", false);
#endif
  w.EndObject();
  w.Key("benchmarks").BeginArray();
  for (const Result& r : results) {
    w.BeginObject();
    w.Member("name", r.name);
    w.Member("ns_per_op", r.ns_per_op);
    w.Member("qps", r.qps);
    if (r.speedup_vs_ref > 0) w.Member("speedup_vs_ref", r.speedup_vs_ref);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string& doc = w.Finish();
  std::FILE* fp = std::fopen(opt.out.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  std::fwrite(doc.data(), 1, doc.size(), fp);
  std::fputc('\n', fp);
  std::fclose(fp);
  std::printf("wrote %s (%zu benchmarks)\n", opt.out.c_str(), results.size());
  return 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
