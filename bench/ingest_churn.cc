// Streaming ingest churn benchmark: what does staleness-driven incremental
// refresh win back after data churn, and what throughput does the append
// path sustain while the same process serves estimates?
//
// Scenario (the streaming successor of the old Table 6 reproduction —
// bench_table6_incremental replayed *query* partitions; this replays *data*):
//   1. a sharded UAE trains on the base table and starts serving;
//   2. producers stream churn rows concentrated in one partition band (plus a
//      batch of rows carrying an unseen value) through IngestService while
//      serving clients keep calling Estimate() — ingest throughput is
//      measured against this concurrent traffic;
//   3. the delta is compacted and a post-churn test workload is labeled
//      exactly over the live table;
//   4. the StalenessMonitor flags the drifted shard(s); RefreshController
//      clones the base, retrains ONLY those shards on their delta rows, wraps
//      the overflow tail, and hot-swaps the snapshot.
//
// Emits BENCH_ingest.json in the compare_bench.py schema. The gated entry is
// `ingest/churn_accuracy`: its `speedup_vs_ref` is the stale model's median
// q-error on the post-churn test set divided by the refreshed snapshot's — a
// machine-independent accuracy ratio gated with the usual >25% regression
// rule plus an absolute >=2x improvement floor. `ingest/throughput` reports
// rows/s sustained with concurrent serving (informational in the JSON; the
// binary itself exits non-zero below --min-rows-per-s, the absolute floor).
//
// Further self-checks (non-zero exit on failure, so the run step doubles as
// a smoke test): the refresh must publish, untouched shards must stay
// BITWISE identical through the refresh, the unseen value must be exactly
// queryable through the published tail, and serving traffic must have
// overlapped the ingest window.
//
// Usage:
//   bench_ingest_churn [--out=BENCH_ingest.json] [--rows=6000] [--shards=4]
//                      [--churn=9000] [--unseen=64] [--base-epochs=1]
//                      [--refresh-epochs=3] [--test=96] [--producers=1]
//                      [--clients=2] [--min-rows-per-s=10000] [--seed=7]
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/harness.h"
#include "data/synthetic.h"
#include "ingest/refresh.h"
#include "nn/serialize.h"
#include "serve/service.h"
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
  std::string out = "BENCH_ingest.json";
  int rows = 6000;
  int shards = 4;
  int churn = 9000;      ///< Band-concentrated churn rows streamed in.
  int unseen = 64;       ///< Rows carrying an unseen (overflow) value.
  int base_epochs = 1;
  int refresh_epochs = 3;
  int test = 96;         ///< Post-churn labeled test queries.
  /// 1 (default) keeps the queue order — and therefore the refreshed
  /// parameters and the gated accuracy ratio — bit-deterministic. Raise it to
  /// stress multi-producer interleavings (the unit/TSan suites already cover
  /// them); the ratio then varies slightly run to run.
  int producers = 1;
  int clients = 2;       ///< Concurrent serving threads during ingest.
  double min_rows_per_s = 10000.0;  ///< Absolute ingest throughput floor.
  uint64_t seed = 7;
};

double MedianQError(const core::ServableModel& model,
                    const workload::Workload& test) {
  std::vector<double> errors = workload::EvaluateQErrorsBatched(
      test, [&](std::span<const workload::Query> qs) {
        return model.EstimateCards(qs);
      });
  return util::Quantile(std::move(errors), 0.5);
}

std::string ShardParams(const shard::ShardedServable& model, int s) {
  const auto& uae = dynamic_cast<const core::Uae&>(model.shard_model(s));
  return nn::SerializeParams(uae.model().Parameters());
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.out = flags.GetString("out", opt.out);
  opt.rows = std::max<int>(1000, static_cast<int>(flags.GetInt("rows", opt.rows)));
  opt.shards = std::max<int>(2, static_cast<int>(flags.GetInt("shards", opt.shards)));
  opt.churn = std::max<int>(256, static_cast<int>(flags.GetInt("churn", opt.churn)));
  opt.unseen = std::max<int>(8, static_cast<int>(flags.GetInt("unseen", opt.unseen)));
  opt.base_epochs = std::max<int>(1, static_cast<int>(flags.GetInt("base-epochs", opt.base_epochs)));
  opt.refresh_epochs = std::max<int>(1, static_cast<int>(flags.GetInt("refresh-epochs", opt.refresh_epochs)));
  opt.test = std::max<int>(16, static_cast<int>(flags.GetInt("test", opt.test)));
  opt.producers = std::max<int>(1, static_cast<int>(flags.GetInt("producers", opt.producers)));
  opt.clients = std::max<int>(1, static_cast<int>(flags.GetInt("clients", opt.clients)));
  opt.min_rows_per_s = flags.GetDouble("min-rows-per-s", opt.min_rows_per_s);
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(opt.seed)));

  data::Table table = data::SyntheticDmv(static_cast<size_t>(opt.rows), opt.seed);

  shard::ShardedUaeConfig sc;
  sc.base.hidden = 32;
  sc.base.ps_samples = 128;
  sc.base.seed = opt.seed;
  sc.partition.num_shards = opt.shards;
  auto model = std::make_shared<shard::ShardedUae>(table, sc);
  util::Stopwatch train_timer;
  model->TrainDataEpochs(opt.base_epochs);
  std::printf("base model: %d shards, %d data epochs in %.1fs\n", opt.shards,
              opt.base_epochs, train_timer.ElapsedSeconds());

  const shard::HorizontalPartitioner& part = model->partitioner();
  const int pcol = part.partition_col();
  const data::Column& pcolumn = table.column(pcol);
  const int32_t domain = pcolumn.domain();

  // The churn band = the LAST shard's code interval on the partition column:
  // every churn row lands in that shard, so the refresh must retrain it and
  // leave every other shard bitwise untouched.
  const shard::ShardDescriptor& band = part.shard(opt.shards - 1);
  std::vector<std::vector<int32_t>> band_rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const int32_t c = pcolumn.code_at(r);
    if (c >= band.code_lo && c <= band.code_hi) band_rows.push_back(table.RowCodes(r));
  }
  if (band_rows.empty()) {
    std::fprintf(stderr, "SELF-CHECK FAILED: churn band holds no base rows\n");
    return 1;
  }
  std::printf("churn band: shard %d, codes [%d, %d], %zu base rows\n",
              band.shard_id, band.code_lo, band.code_hi, band_rows.size());

  // Rows carrying ONE unseen value (overflow dictionary) in a non-partition
  // column, with band partition values so they route to the churned shard.
  const int ucol = pcol == 0 ? 1 : 0;
  const data::Column& ucolumn = table.column(ucol);
  const int64_t unseen_value = static_cast<int64_t>(ucolumn.domain()) + 7;
  std::vector<std::vector<data::Value>> unseen_rows;
  for (int i = 0; i < opt.unseen; ++i) {
    const std::vector<int32_t>& src = band_rows[static_cast<size_t>(i) % band_rows.size()];
    std::vector<data::Value> values;
    values.reserve(src.size());
    for (size_t c = 0; c < src.size(); ++c) {
      values.push_back(static_cast<int>(c) == ucol
                           ? data::Value(unseen_value)
                           : table.column(static_cast<int>(c)).ValueForCode(src[c]));
    }
    unseen_rows.push_back(std::move(values));
  }

  serve::EstimationService service(model);
  ingest::IngestConfig ic;
  ic.compact_min_delta = 1024;  // Compactions happen DURING the run.
  ingest::IngestService ingest(&table, &part, ic);

  // Serving traffic for the ingest window: band-targeted queries (the shape
  // the post-churn workload will take).
  workload::GeneratorConfig band_gc;
  band_gc.center_min = static_cast<double>(band.code_lo) / domain;
  band_gc.center_max = static_cast<double>(band.code_hi + 1) / domain;
  band_gc.min_filters = 1;
  band_gc.max_filters = 2;
  band_gc.target_volume = 0.1;
  workload::QueryGenerator serve_gen(table, band_gc, opt.seed + 11);
  std::vector<workload::Query> serve_queries;
  for (int i = 0; i < 64; ++i) serve_queries.push_back(serve_gen.Generate());

  // ---- Churn phase: producers stream, clients serve, clock runs. ----------
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < opt.clients; ++c) {
    clients.emplace_back([&] {
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        (void)service.Estimate(serve_queries[i++ % serve_queries.size()]);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const size_t total_churn =
      static_cast<size_t>(opt.churn) + static_cast<size_t>(opt.unseen);
  util::Stopwatch ingest_timer;
  // Unseen rows first, from this thread, so the default single-producer run
  // has a bit-deterministic queue order (concurrency comes from the serving
  // clients and the in-flight compactions, not from racing producers).
  for (const auto& values : unseen_rows) ingest.Append(values);
  std::vector<std::thread> producers;
  const int per_producer = opt.churn / opt.producers;
  for (int p = 0; p < opt.producers; ++p) {
    const int count =
        p == opt.producers - 1 ? opt.churn - per_producer * p : per_producer;
    producers.emplace_back([&, p, count] {
      for (int i = 0; i < count; ++i) {
        ingest.AppendCodes(
            band_rows[static_cast<size_t>(p * 131 + i) % band_rows.size()]);
      }
    });
  }
  for (auto& t : producers) t.join();
  ingest.Flush();
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();

  const double rows_per_s = static_cast<double>(total_churn) / ingest_seconds;
  std::printf("churn: %zu rows in %.2fs = %.0f rows/s, %llu estimates served "
              "concurrently\n",
              total_churn, ingest_seconds, rows_per_s,
              static_cast<unsigned long long>(served.load()));
  if (ingest.stats().rows_appended != total_churn) {
    std::fprintf(stderr, "SELF-CHECK FAILED: %llu of %zu churn rows applied\n",
                 static_cast<unsigned long long>(ingest.stats().rows_appended),
                 total_churn);
    return 1;
  }
  if (served.load() == 0) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: no serving traffic overlapped ingest\n");
    return 1;
  }

  // Compact the remainder and label the post-churn test set over the LIVE
  // table (generator construction scans frequencies: quiesced, post-fold).
  ingest.CompactNow();
  std::unordered_set<uint64_t> seen;
  workload::QueryGenerator test_gen(table, band_gc, opt.seed + 31);
  workload::Workload post_churn =
      test_gen.GenerateLabeled(static_cast<size_t>(opt.test), &seen);

  const double stale_median = MedianQError(*model, post_churn);

  std::vector<std::string> before;
  for (int s = 0; s < opt.shards; ++s) before.push_back(ShardParams(*model, s));

  // ---- Staleness-driven refresh. ------------------------------------------
  ingest::RefreshConfig rc;
  rc.staleness.trigger_rows = 256;
  rc.data_epochs = opt.refresh_epochs;
  ingest::RefreshController ctrl(&ingest, &service, model, rc);
  ingest::RefreshResult refresh = ctrl.RefreshIfStale();
  std::printf("refresh: %s (%zu shards, %zu rows, %zu tail) in %.2fs\n",
              ingest::RefreshOutcomeName(refresh.outcome),
              refresh.refreshed_shards.size(), refresh.rows_ingested,
              refresh.tail_rows, refresh.seconds);
  if (refresh.outcome != ingest::RefreshOutcome::kPublished) {
    std::fprintf(stderr, "SELF-CHECK FAILED: refresh did not publish\n");
    return 1;
  }

  // Untouched shards must ride through the refresh bitwise identical.
  std::shared_ptr<const shard::ShardedServable> refreshed = ctrl.current_base();
  std::unordered_set<int> touched(refresh.refreshed_shards.begin(),
                                  refresh.refreshed_shards.end());
  if (touched.size() == static_cast<size_t>(opt.shards)) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: every shard retrained; churn was supposed "
                 "to drift a strict subset\n");
    return 1;
  }
  for (int s = 0; s < opt.shards; ++s) {
    if (touched.count(s)) continue;
    if (ShardParams(*refreshed, s) != before[static_cast<size_t>(s)]) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: untouched shard %d changed bitwise\n", s);
      return 1;
    }
  }

  // The unseen value answers EXACTLY through the published tail — no
  // dictionary remapping, no model retrain for it.
  auto ucode = ucolumn.CodeForValue(data::Value(unseen_value));
  if (!ucode.has_value() || *ucode < ucolumn.domain()) {
    std::fprintf(stderr, "SELF-CHECK FAILED: unseen value has no overflow code\n");
    return 1;
  }
  workload::Query uq(table.num_cols());
  workload::Predicate up;
  up.col = ucol;
  up.op = workload::Op::kEq;
  up.code = *ucode;
  uq.AddPredicate(up, ucolumn.total_domain());
  std::shared_ptr<const serve::ModelSnapshot> snap = service.CurrentSnapshot();
  const double unseen_est = snap->model->EstimateCard(uq);
  const auto unseen_truth = workload::ExecuteCount(table, uq);
  if (static_cast<int64_t>(unseen_truth) != opt.unseen ||
      unseen_est < static_cast<double>(opt.unseen) ||
      unseen_est > static_cast<double>(opt.unseen) + 2.0) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: unseen value est %.2f vs truth %lld "
                 "(expected %d)\n",
                 unseen_est, static_cast<long long>(unseen_truth), opt.unseen);
    return 1;
  }

  const double refreshed_median = MedianQError(*snap->model, post_churn);
  const double improvement = stale_median / refreshed_median;
  std::printf("post-churn test set: stale median %.2f -> refreshed median %.2f "
              "(%.2fx, generation %llu)\n",
              stale_median, refreshed_median, improvement,
              static_cast<unsigned long long>(snap->generation));

  util::JsonWriter w;
  w.BeginObject();
  w.Member("schema_version", 1);
  w.Key("config").BeginObject();
  w.Member("rows", opt.rows);
  w.Member("shards", opt.shards);
  w.Member("churn", opt.churn);
  w.Member("unseen", opt.unseen);
  w.Member("base_epochs", opt.base_epochs);
  w.Member("refresh_epochs", opt.refresh_epochs);
  w.Member("test", opt.test);
  w.Member("producers", opt.producers);
  w.Member("clients", opt.clients);
  w.Member("seed", static_cast<int64_t>(opt.seed));
#ifdef NDEBUG
  w.Member("optimized_build", true);
#else
  w.Member("optimized_build", false);
#endif
  w.EndObject();
  w.Key("benchmarks").BeginArray();
  // Gated: accuracy win of the refreshed snapshot over the stale one on the
  // post-churn workload.
  w.BeginObject();
  w.Member("name", "ingest/churn_accuracy");
  w.Member("stale_median_qerror", stale_median);
  w.Member("refreshed_median_qerror", refreshed_median);
  w.Member("refreshed_shards", static_cast<int64_t>(refresh.refreshed_shards.size()));
  w.Member("tail_rows", static_cast<int64_t>(refresh.tail_rows));
  w.Member("published_generation", static_cast<int64_t>(snap->generation));
  w.Member("speedup_vs_ref", improvement);
  w.EndObject();
  // Informational in the JSON (wall-clock throughput does not transfer
  // across machines); the binary enforces --min-rows-per-s itself.
  w.BeginObject();
  w.Member("name", "ingest/throughput");
  w.Member("rows_per_s", rows_per_s);
  w.Member("churn_rows", static_cast<int64_t>(total_churn));
  w.Member("served_during_ingest", static_cast<int64_t>(served.load()));
  w.Member("compactions", static_cast<int64_t>(ingest.stats().compactions));
  w.Member("seconds", ingest_seconds);
  w.EndObject();
  // Informational: what one incremental refresh costs end to end.
  w.BeginObject();
  w.Member("name", "ingest/refresh_latency");
  w.Member("ns_per_op", refresh.seconds * 1e9);
  w.Member("seconds", refresh.seconds);
  w.Member("rows_ingested", static_cast<int64_t>(refresh.rows_ingested));
  w.EndObject();
  w.EndArray();
  w.EndObject();

  if (!WriteBenchJson(opt.out, w.Finish())) return 1;
  std::printf("wrote %s\n", opt.out.c_str());

  if (rows_per_s < opt.min_rows_per_s) {
    std::fprintf(stderr,
                 "SELF-CHECK FAILED: ingest sustained %.0f rows/s with "
                 "concurrent serving, floor is %.0f\n",
                 rows_per_s, opt.min_rows_per_s);
    return 1;
  }
  // The refresh must at least improve; the 2x floor is enforced by the CI
  // gate against the committed baseline.
  return improvement > 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace uae::bench

int main(int argc, char** argv) { return uae::bench::Run(argc, argv); }
