// Service throughput benchmark: N client threads firing a Zipf-skewed query
// stream at (a) the bare model, one EstimateCard call per request — the
// pre-serving deployment — and (b) serve::EstimationService, which coalesces
// the same stream into micro-batches, with the result cache off and on.
//
// Emits BENCH_serve.json in the same schema as BENCH_kernels.json. The gated
// entry is `serve/service_Nt`: its `speedup_vs_ref` is service qps divided by
// the direct-call qps measured in the same process, so the ratio transfers
// across machines and bench/compare_bench.py can apply the usual >25%
// regression rule plus the 2x acceptance floor.
//
// Usage:
//   bench_serve_throughput [--out=BENCH_serve.json] [--threads=8]
//                          [--per-thread=300] [--distinct=600] [--zipf=1.0]
//                          [--rows=4000] [--ps-samples=64] [--reps=3]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace uae::bench {
namespace {

struct Options {
  std::string out = "BENCH_serve.json";
  int threads = 8;
  // Workload shape: ~600 distinct queries against 2400 requests puts the
  // cache hit rate near 70%, so the gated service/direct qps ratio blends
  // compute (scales with cores like the baseline) and cache hits (lock/memory
  // bound) — keeping the ratio transferable across host core counts instead
  // of degenerating into a pure cache-throughput measurement.
  int per_thread = 300;   ///< Requests per client thread.
  int distinct = 600;     ///< Distinct queries in the pool.
  double zipf = 1.0;      ///< Skew of the request stream (0 = uniform).
  int rows = 4000;
  int ps_samples = 64;
  int reps = 3;           ///< Timed repetitions; the best (max qps) is kept.
};

struct Result {
  std::string name;
  double ns_per_op = 0.0;
  double qps = 0.0;
  double speedup_vs_ref = 0.0;  ///< 0 when the entry is ungated.
};

/// Runs `client(t)` on `threads` OS threads and returns wall seconds.
double TimeClients(int threads, const std::function<void(int)>& client) {
  util::Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.emplace_back([&, t] { client(t); });
  for (auto& w : workers) w.join();
  return timer.ElapsedSeconds();
}

/// Best-of-reps qps for one serving mode. `make_sink` builds the per-rep
/// request sink (fresh service per rep so each rep starts cache-cold).
double MeasureQps(const Options& opt,
                  const std::vector<std::vector<const workload::Query*>>& streams,
                  const std::function<std::function<void(const workload::Query&)>()>&
                      make_sink) {
  double best = 0.0;
  for (int rep = 0; rep < opt.reps; ++rep) {
    std::function<void(const workload::Query&)> sink = make_sink();
    double seconds = TimeClients(opt.threads, [&](int t) {
      for (const workload::Query* q : streams[static_cast<size_t>(t)]) {
        sink(*q);
      }
    });
    double total = static_cast<double>(opt.threads) * opt.per_thread;
    best = std::max(best, total / seconds);
  }
  return best;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.threads = std::max<int>(1, static_cast<int>(flags.GetInt("threads", opt.threads)));
  opt.per_thread = std::max<int>(1, static_cast<int>(flags.GetInt("per-thread", opt.per_thread)));
  opt.distinct = std::max<int>(1, static_cast<int>(flags.GetInt("distinct", opt.distinct)));
  opt.zipf = flags.GetDouble("zipf", opt.zipf);
  opt.rows = std::max<int>(100, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.ps_samples = std::max<int>(8, static_cast<int>(flags.GetInt("ps-samples", opt.ps_samples)));
  opt.reps = std::max<int>(1, static_cast<int>(flags.GetInt("reps", opt.reps)));

  // Model under service: accuracy is irrelevant here, serving cost is not —
  // keep the architecture at defaults but train only briefly.
  data::Table table = data::TinyCorrelated(static_cast<size_t>(opt.rows), 4);
  core::UaeConfig config;
  config.hidden = 32;
  config.ps_samples = opt.ps_samples;
  config.seed = 3;
  auto model = std::make_shared<core::Uae>(table, config);
  model->TrainDataEpochs(1);

  // Distinct query pool + per-thread Zipf-skewed request streams (the shape
  // of production traffic: a hot head, a long tail). Streams are fixed
  // across modes and reps so every mode answers the identical workload.
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, 37);
  std::vector<workload::Query> pool;
  pool.reserve(static_cast<size_t>(opt.distinct));
  for (int i = 0; i < opt.distinct; ++i) pool.push_back(gen.Generate());

  std::vector<std::vector<const workload::Query*>> streams(
      static_cast<size_t>(opt.threads));
  for (int t = 0; t < opt.threads; ++t) {
    util::Rng rng(1000 + static_cast<uint64_t>(t));
    auto& stream = streams[static_cast<size_t>(t)];
    stream.reserve(static_cast<size_t>(opt.per_thread));
    for (int i = 0; i < opt.per_thread; ++i) {
      size_t pick = static_cast<size_t>(
          rng.Zipf(static_cast<int64_t>(pool.size()), opt.zipf));
      stream.push_back(&pool[pick]);
    }
  }

  std::printf("serving %d threads x %d requests (%d distinct, zipf %.2f)\n",
              opt.threads, opt.per_thread, opt.distinct, opt.zipf);

  // (a) Baseline: one-query-per-call EstimateCard straight on the model.
  double direct_qps = MeasureQps(opt, streams, [&] {
    return [&](const workload::Query& q) { (void)model->EstimateCard(q); };
  });
  std::printf("  direct          : %8.1f q/s\n", direct_qps);

  // (b) Micro-batching only (cache off) — isolates the coalescing effect.
  double nocache_qps = MeasureQps(opt, streams, [&] {
    serve::ServiceConfig cfg;
    cfg.cache_enabled = false;
    auto service = std::make_shared<serve::EstimationService>(model, cfg);
    return [service](const workload::Query& q) { (void)service->EstimateCard(q); };
  });
  std::printf("  service (nocache): %7.1f q/s  (%.2fx direct)\n", nocache_qps,
              nocache_qps / direct_qps);

  // (c) The full service: micro-batching + sharded generation-keyed cache.
  double service_qps = MeasureQps(opt, streams, [&] {
    auto service = std::make_shared<serve::EstimationService>(model);
    return [service](const workload::Query& q) { (void)service->EstimateCard(q); };
  });
  std::printf("  service (cache) : %8.1f q/s  (%.2fx direct)\n", service_qps,
              service_qps / direct_qps);

  std::vector<Result> results;
  char name[64];
  std::snprintf(name, sizeof(name), "serve/direct_%dt", opt.threads);
  results.push_back({name, 1e9 / direct_qps, direct_qps, 0.0});
  std::snprintf(name, sizeof(name), "serve/service_nocache_%dt", opt.threads);
  results.push_back({name, 1e9 / nocache_qps, nocache_qps, 0.0});
  std::snprintf(name, sizeof(name), "serve/service_%dt", opt.threads);
  results.push_back({name, 1e9 / service_qps, service_qps,
                     service_qps / direct_qps});

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("threads", opt.threads);
  w.Member("per_thread", opt.per_thread);
  w.Member("distinct", opt.distinct);
  w.Member("zipf", opt.zipf);
  w.Member("rows", opt.rows);
  w.Member("ps_samples", opt.ps_samples);
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

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s (%zu benchmarks)\n", opt.out.c_str(), results.size());
  return 0;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
