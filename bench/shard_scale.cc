// Sharded-estimation scale benchmark: measures what horizontal partitioning
// buys over the monolithic model on the same table.
//
//  * shard/train_parallel — wall-clock speedup of training N per-shard models
//    (fanned across the global pool) vs one monolithic model, same epochs.
//    Informational (ungated): on a 1-core host the ratio sits near 1x — the
//    FLOPs are the same — and grows with cores.
//  * shard/prune_speedup — GATED: estimate throughput on a partition-targeted
//    workload with shard pruning on vs off, same trained models. Pruning is a
//    compute reduction (skip provably-disjoint shards), not parallelism, so
//    the ratio transfers across host core counts; the CI gate applies the
//    usual >25% regression rule plus the 2x acceptance floor.
//
// Also prints median q-error for monolithic / pruned / unpruned so accuracy
// is visible next to the throughput (pruning removes the spurious mass
// off-target shards would contribute, so it helps accuracy too).
//
// Emits BENCH_shard.json in the BENCH_kernels.json schema.
//
// Usage:
//   bench_shard_scale [--out=BENCH_shard.json] [--rows=20000] [--shards=8]
//                     [--epochs=2] [--queries=192] [--reps=3] [--ps=64]
//                     [--hidden=32] [--volume=0.02] [--seed=5]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "shard/sharded_uae.h"
#include "util/json.h"
#include "util/quantiles.h"
#include "util/stopwatch.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_shard.json";
  size_t rows = 20000;
  int shards = 8;
  int epochs = 2;
  int queries = 192;   ///< Partition-targeted workload size.
  int reps = 3;        ///< Timed repetitions; best qps kept.
  int ps_samples = 64;
  int hidden = 32;
  double volume = 0.02;  ///< Bounded-range width as a domain fraction.
  uint64_t seed = 5;
};

struct Result {
  std::string name;
  double ns_per_op = 0.0;
  double qps = 0.0;
  double speedup_vs_ref = 0.0;  ///< 0 when the entry is ungated.
};

double MedianQError(const std::vector<double>& est,
                    const std::vector<int64_t>& truth) {
  std::vector<double> errors;
  errors.reserve(est.size());
  for (size_t i = 0; i < est.size(); ++i) {
    errors.push_back(workload::QError(est[i], static_cast<double>(truth[i])));
  }
  return util::Quantile(std::move(errors), 0.5);
}

/// Best-of-reps throughput of one batched estimate path.
double MeasureQps(int reps, size_t n_queries,
                  const std::function<std::vector<double>()>& run) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    std::vector<double> out = run();
    double seconds = timer.ElapsedSeconds();
    best = std::max(best, static_cast<double>(n_queries) / seconds);
  }
  return best;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = static_cast<size_t>(flags.GetInt("rows", static_cast<int64_t>(opt.rows)));
  opt.shards = std::max<int>(2, static_cast<int>(flags.GetInt("shards", opt.shards)));
  opt.epochs = std::max<int>(1, static_cast<int>(flags.GetInt("epochs", opt.epochs)));
  opt.queries = std::max<int>(16, static_cast<int>(flags.GetInt("queries", opt.queries)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));
  opt.ps_samples = std::max<int>(8, static_cast<int>(flags.GetInt("ps", opt.ps_samples)));
  opt.hidden = std::max<int>(8, static_cast<int>(flags.GetInt("hidden", opt.hidden)));
  opt.volume = flags.GetDouble("volume", opt.volume);
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(opt.seed)));

  data::Table table = data::SyntheticDmv(opt.rows, opt.seed);
  const int pcol = table.LargestDomainColumn();
  std::printf("sharding %zu rows on column %d (domain %d) into %d shards\n",
              table.num_rows(), pcol, table.column(pcol).domain(), opt.shards);

  core::UaeConfig base;
  base.hidden = opt.hidden;
  base.ps_samples = opt.ps_samples;
  base.seed = opt.seed + 1;

  // Partition-targeted workload: every query carries a narrow range on the
  // partition column (the generator's bounded attribute), so pruning keeps
  // the fan-out at one or two shards out of N — the workload shape sharding
  // is built for (queries aimed at one partition of a large table).
  workload::GeneratorConfig gc;
  gc.bounded_col = pcol;
  gc.target_volume = opt.volume;
  gc.min_filters = 2;
  gc.max_filters = 4;
  workload::QueryGenerator gen(table, gc, opt.seed + 2);
  std::vector<workload::Query> queries;
  queries.reserve(static_cast<size_t>(opt.queries));
  for (int i = 0; i < opt.queries; ++i) queries.push_back(gen.Generate());
  std::vector<int64_t> truths = workload::ExecuteCounts(table, queries);

  // --- Training: monolithic vs per-shard-parallel ---------------------------
  util::Stopwatch mono_timer;
  core::Uae mono(table, base);
  mono.TrainDataEpochs(opt.epochs);
  const double mono_train_s = mono_timer.ElapsedSeconds();
  std::printf("  monolithic train : %6.1fs\n", mono_train_s);

  shard::ShardedUaeConfig sc;
  sc.base = base;
  sc.partition.num_shards = opt.shards;
  sc.partition.partition_col = pcol;
  util::Stopwatch shard_timer;
  shard::ShardedUae sharded(table, sc);
  sharded.TrainDataEpochs(opt.epochs);
  const double shard_train_s = shard_timer.ElapsedSeconds();
  std::printf("  sharded train    : %6.1fs  (%.2fx monolithic)\n", shard_train_s,
              mono_train_s / shard_train_s);

  // --- Estimate throughput: pruned vs full fan-out --------------------------
  sharded.set_prune(false);
  std::vector<double> unpruned_cards = sharded.EstimateCards(queries);
  double unpruned_qps = MeasureQps(opt.reps, queries.size(),
                                   [&] { return sharded.EstimateCards(queries); });
  sharded.set_prune(true);
  std::vector<double> pruned_cards = sharded.EstimateCards(queries);
  double pruned_qps = MeasureQps(opt.reps, queries.size(),
                                 [&] { return sharded.EstimateCards(queries); });
  std::vector<double> mono_cards = mono.EstimateCards(queries);

  size_t evaluated = 0;
  for (const workload::Query& q : queries) {
    evaluated += sharded.partitioner().CandidateShards(q).size();
  }
  double fanout = static_cast<double>(evaluated) /
                  std::max<double>(1.0, static_cast<double>(queries.size()));
  std::printf("  unpruned        : %8.1f q/s  (fan-out %d, median q-err %.2f)\n",
              unpruned_qps, opt.shards, MedianQError(unpruned_cards, truths));
  std::printf("  pruned          : %8.1f q/s  (%.2fx unpruned, median q-err %.2f)\n",
              pruned_qps, pruned_qps / unpruned_qps,
              MedianQError(pruned_cards, truths));
  std::printf("  monolithic      :                 (median q-err %.2f)\n",
              MedianQError(mono_cards, truths));
  std::printf("  avg pruned fan-out: %.2f of %d shards\n", fanout, opt.shards);

  std::vector<Result> results;
  char name[64];
  // ns_per_op = the sharded (parallel) training wall time; the monolithic
  // reference and the ratio live in the config block.
  std::snprintf(name, sizeof(name), "shard/train_parallel_%ds", opt.shards);
  results.push_back({name, shard_train_s * 1e9, 0.0, 0.0});
  std::snprintf(name, sizeof(name), "shard/unpruned_%ds", opt.shards);
  results.push_back({name, 1e9 / unpruned_qps, unpruned_qps, 0.0});
  results.push_back({"shard/prune_speedup", 1e9 / pruned_qps, pruned_qps,
                     pruned_qps / unpruned_qps});

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("rows", static_cast<int64_t>(opt.rows));
  w.Member("shards", opt.shards);
  w.Member("epochs", opt.epochs);
  w.Member("queries", opt.queries);
  w.Member("ps_samples", opt.ps_samples);
  w.Member("hidden", opt.hidden);
  w.Member("volume", opt.volume);
  w.Member("reps", opt.reps);
  w.Member("mono_train_s", mono_train_s);
  w.Member("train_speedup", mono_train_s / shard_train_s);
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
    if (r.qps > 0) w.Member("qps", r.qps);
    if (r.speedup_vs_ref > 0) w.Member("speedup_vs_ref", r.speedup_vs_ref);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s (%zu benchmarks)\n", opt.out.c_str(), results.size());

  // Smoke assertion: pruning must help on a partition-targeted workload —
  // the binary doubles as a nightly health check.
  if (pruned_qps <= unpruned_qps) {
    std::fprintf(stderr, "FAIL: pruning did not improve throughput\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
