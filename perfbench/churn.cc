// learn-churn: the paper's data-plus-query learning, live:
//   EstimationService -> ShardedUae (4 shards over SyntheticDmv)
//   IngestService appends band-concentrated churn plus a few unseen values;
//   RefreshController (staleness-driven refit) and AdaptationController
//   (drift-driven fine-tune on labelled feedback) both run Start()ed.
//
// No router: RefreshController publishes a bare ShardedUae/DeltaAwareModel,
// so it would drop a router stacked above it at the first refresh.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "data/synthetic.h"
#include "ingest/delta_model.h"
#include "ingest/refresh.h"
#include "ingest/service.h"
#include "online/controller.h"
#include "online/drift.h"
#include "online/feedback.h"
#include "shard/sharded_uae.h"
#include "util/threadpool.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace data = uae::data;
namespace ingest = uae::ingest;
namespace online = uae::online;
namespace serve = uae::serve;
namespace shard = uae::shard;
namespace uw = uae::workload;

// Chosen on a 4-core x86-64 machine at the commit that added the benchmark.
constexpr double kNominalQps = 2000.0;
constexpr double kLimitUs = 20000.0;
constexpr double kLadderTop = 32.0;
constexpr double kAppendRowsPerS = 300.0;
constexpr size_t kUnseenEvery = 40;     // One churn row in 40 has an unseen value.
constexpr size_t kFeedbackEvery = 3;    // One read in 3 gets labelled feedback.
constexpr size_t kReadPool = 128;  // Zipf reads: most hit the cache between publishes.
constexpr size_t kScoreQueries = 1200;  // Post-churn labelled set.
constexpr size_t kHeldGenerations = 4;  // Snapshots kept for bitwise checks.
constexpr double kBitwiseShare = 0.05;  // Labelled reads re-estimated directly.
constexpr size_t kRows = 20000;
constexpr size_t kSmokeRows = 3000;
constexpr uint64_t kDataSeed = 5;

struct ChurnStack {
  std::unique_ptr<data::Table> table;
  std::shared_ptr<shard::ShardedUae> model;
  std::unique_ptr<serve::EstimationService> service;
  std::unique_ptr<ingest::IngestService> ingest;
  std::unique_ptr<ingest::RefreshController> refresh;
  std::unique_ptr<online::FeedbackCollector> collector;
  std::unique_ptr<online::DriftMonitor> drift;
  std::unique_ptr<online::AdaptationController> adapt;
  double train_s = 0.0;
  ~ChurnStack() {
    if (adapt) adapt->Stop();
    if (refresh) refresh->Stop();
    if (ingest) ingest->Close();
  }
};

std::unique_ptr<ChurnStack> BuildChurnStack(size_t rows) {
  auto s = std::make_unique<ChurnStack>();
  s->table = std::make_unique<data::Table>(data::SyntheticDmv(rows, kDataSeed));
  const TimePoint t0 = Clock::now();
  s->model = std::make_shared<shard::ShardedUae>(*s->table, shard::ShardedUaeConfig{});
  s->model->TrainDataEpochs(1);
  s->train_s = SecondsBetween(t0, Clock::now());
  s->service = std::make_unique<serve::EstimationService>(s->model);
  s->ingest = std::make_unique<ingest::IngestService>(s->table.get(),
                                                      &s->model->partitioner());
  s->refresh = std::make_unique<ingest::RefreshController>(s->ingest.get(),
                                                           s->service.get(), s->model);
  s->collector = std::make_unique<online::FeedbackCollector>();
  online::DriftConfig dc;
  // Override: the served model's median q-error on band reads sits below
  // the default bar of 3, so without a lower bar adaptation never runs.
  dc.median_threshold = 1.5;
  s->drift = std::make_unique<online::DriftMonitor>(dc);
  s->adapt = std::make_unique<online::AdaptationController>(
      s->service.get(), s->collector.get(), s->drift.get());
  s->refresh->Start();
  s->adapt->Start();
  return s;
}

}  // namespace

void RunLearnChurn(RunContext* ctx) {
  const Options& o = ctx->opt;
  const size_t rows = o.smoke ? kSmokeRows : kRows;

  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::unique_ptr<ChurnStack> stack;
  const int repeats = o.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    const TimePoint t0 = Clock::now();
    stack = BuildChurnStack(rows);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    train_s.push_back(stack->train_s);
  }
  PrintSetup("learn-churn", setup_s, train_s);
  data::Table& table = *stack->table;
  serve::EstimationService& service = *stack->service;
  const shard::HorizontalPartitioner& part = stack->model->partitioner();
  const int shards = part.num_shards();
  const size_t base_rows = table.num_rows();

  // ---- Churn rows and the read pool (untimed). ------------------------------
  const int pcol = part.partition_col();
  const data::Column& pcolumn = table.column(pcol);
  const int32_t domain = pcolumn.domain();
  const shard::ShardDescriptor& band = part.shard(shards - 1);
  std::vector<std::vector<int32_t>> band_rows;
  for (size_t r = 0; r < base_rows; ++r) {
    const int32_t c = pcolumn.code_at(r);
    if (c >= band.code_lo && c <= band.code_hi) band_rows.push_back(table.RowCodes(r));
  }
  const int ucol = pcol == 0 ? 1 : 0;
  const int64_t unseen_base = static_cast<int64_t>(table.column(ucol).domain()) + 7;
  uw::GeneratorConfig band_gc;
  band_gc.center_min = static_cast<double>(band.code_lo) / domain;
  band_gc.center_max = static_cast<double>(band.code_hi + 1) / domain;
  band_gc.min_filters = 1;
  band_gc.max_filters = 2;
  band_gc.target_volume = 0.1;
  uw::QueryGenerator read_gen(table, band_gc, o.seed * 31 + 11);
  std::vector<uw::Query> pool;
  for (size_t i = 0; i < kReadPool; ++i) pool.push_back(read_gen.Generate());
  uae::util::Rng rng(o.seed * 6151 + 5);

  // Appends run on a fixed schedule across every phase; row k (0-based) of
  // the stream becomes global row base_rows + k (one producer, FIFO apply).
  uae::util::Rng churn_rng(o.seed * 7 + 1);
  std::vector<TimePoint> append_due;
  std::vector<double> append_us;
  TimePoint append_origin{};
  size_t appended = 0;
  size_t max_depth = 0;
  auto append_row = [&](size_t k) {
    const std::vector<int32_t>& src = band_rows[static_cast<size_t>(
        churn_rng.UniformInt(0, static_cast<int64_t>(band_rows.size()) - 1))];
    const TimePoint t0 = Clock::now();
    bool ok = true;
    if (k % kUnseenEvery == kUnseenEvery - 1) {
      std::vector<data::Value> values;
      for (size_t c = 0; c < src.size(); ++c) {
        values.push_back(static_cast<int>(c) == ucol
                             ? data::Value(unseen_base + static_cast<int64_t>(k % 3))
                             : table.column(static_cast<int>(c)).ValueForCode(src[c]));
      }
      ok = stack->ingest->Append(std::move(values));
    } else {
      ok = stack->ingest->AppendCodes(src);
    }
    append_us.push_back(MicrosBetween(t0, Clock::now()));
    ctx->checks.Attempt();
    if (!ok) ctx->checks.Fail("learn-churn: append refused");
  };

  const TimePoint run_start = Clock::now();
  // Publishes, observed from the generator thread.
  // Every generation's row count (range checks), and the newest few
  // snapshots themselves (bitwise re-estimates; holding all would inflate
  // rss_mb with the benchmark's own retention).
  std::map<uint64_t, double> rows_of_generation;
  std::map<uint64_t, std::shared_ptr<const serve::ModelSnapshot>> held;
  std::mutex snap_mu;
  std::vector<size_t> watermark(static_cast<size_t>(shards), 0);
  uint64_t refreshes_seen = 0;
  uint64_t adapt_events_seen = 0;
  TimePoint stale_since{};
  bool stale = false;
  TimePoint drift_since{};
  bool drifting = false;
  TimePoint last_drift_poll{};
  std::vector<double> refresh_lag_s;
  std::vector<double> refresh_s;
  std::vector<double> adapt_s;
  std::vector<Span> cycle_spans;
  auto observe = [&](TimePoint now) {
    {
      std::shared_ptr<const serve::ModelSnapshot> cur = service.CurrentSnapshot();
      std::lock_guard<std::mutex> lock(snap_mu);
      if (rows_of_generation.emplace(cur->generation,
                                     static_cast<double>(cur->model->num_rows()))
              .second) {
        held.emplace(cur->generation, std::move(cur));
        if (held.size() > kHeldGenerations) held.erase(held.begin());
      }
    }
    if (!stale && !stack->refresh->monitor().StaleShards().empty()) {
      stale = true;
      stale_since = now;
    }
    const ingest::RefreshStats rs = stack->refresh->Stats();
    if (rs.published > refreshes_seen) {
      refreshes_seen = rs.published;
      TimePoint oldest = now;
      for (int s = 0; s < shards; ++s) {
        const ingest::DeltaBuffer& buf = stack->ingest->shard_buffer(s);
        const size_t w = buf.watermark();
        size_t& old = watermark[static_cast<size_t>(s)];
        if (w > old) {
          const size_t k = buf.row_at(old) - base_rows;
          if (k < append_due.size()) oldest = std::min(oldest, append_due[k]);
          old = w;
        }
      }
      refresh_lag_s.push_back(SecondsBetween(oldest, now));
      const TimePoint from = stale ? stale_since : now;
      refresh_s.push_back(SecondsBetween(from, now));
      cycle_spans.push_back({0, 0, "ingest.refresh", from, now, 0, {}});
      stale = false;
    }
    if (now - last_drift_poll > std::chrono::milliseconds(20)) {
      last_drift_poll = now;
      if (!drifting && stack->drift->Check().fired) {
        drifting = true;
        drift_since = now;
      }
    }
    const online::AdaptationStats as = stack->adapt->Stats();
    if (as.published + as.rejected > adapt_events_seen) {
      adapt_events_seen = as.published + as.rejected;
      const TimePoint from = drifting ? drift_since : now;
      adapt_s.push_back(SecondsBetween(from, now));
      cycle_spans.push_back({0, 0, "online.adapt", from, now, 0, {}});
      std::fprintf(stderr, "[learn-churn] adaptation outcome at +%.2fs\n",
                   SecondsBetween(run_start, now));
      drifting = false;
    }
  };
  auto tick = [&](TimePoint now) {
    if (append_origin == TimePoint{}) append_origin = now;
    const double elapsed = SecondsBetween(append_origin, now);
    const size_t target = static_cast<size_t>(elapsed * kAppendRowsPerS);
    while (appended < target) {
      append_due.push_back(append_origin + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(
                                                   static_cast<double>(appended) /
                                                   kAppendRowsPerS)));
      append_row(appended++);
    }
    max_depth = std::max(max_depth, stack->ingest->QueueDepth());
    observe(now);
  };

  // One worker thread labels a read on the live table, hands it to the
  // adaptation controller, and re-estimates a sample bitwise on the
  // generation that answered it, all off the answer path.
  uae::util::Rng pick(o.seed ^ 0x5eedull);
  std::atomic<uint64_t> feedback_given{0};
  auto label = [&](const uw::Query* q, serve::ServeResult r) {
    double truth = 0.0;
    {
      auto pin = stack->ingest->PinTable();
      truth = static_cast<double>(uw::ExecuteCountSequential(table, *q));
    }
    stack->adapt->OnFeedback(*q, r, truth);
    feedback_given.fetch_add(1);
    if (pick.Uniform() >= kBitwiseShare) return;
    std::shared_ptr<const serve::ModelSnapshot> snap;
    {
      std::lock_guard<std::mutex> lock(snap_mu);
      auto it = held.find(r.generation);
      if (it == held.end()) return;
      snap = it->second;
    }
    ctx->checks.CheckBitwise(r.card, snap->model->EstimateCard(*q), "learn-churn read");
  };
  uae::util::ThreadPool labeller(1);
  size_t answered = 0;
  auto on_answer = [&](size_t, const RequestRecord& rec) {
    if (rec.failed) return;
    if (++answered % kFeedbackEvery != 0) return;
    const uw::Query* q = &pool[rec.query];
    const serve::ServeResult r{rec.card, rec.generation, rec.cache_hit};
    labeller.Submit([&label, q, r] { label(q, r); });
  };
  auto plan = [&](double rate, double seconds, std::vector<double>* offsets,
                  std::vector<size_t>* index) {
    *offsets = PoissonOffsets(rate, seconds, &rng);
    for (size_t i = 0; i < offsets->size(); ++i) {
      index->push_back(static_cast<size_t>(rng.Zipf(kReadPool, 1.0)));
    }
  };
  auto num_rows_of = [&](uint64_t gen) {
    std::lock_guard<std::mutex> lock(snap_mu);
    auto it = rows_of_generation.lower_bound(gen);  // Exact, or the next one.
    return it != rows_of_generation.end() ? it->second
                                          : static_cast<double>(table.num_rows());
  };
  auto check_answers = [&](const Replayer::Phase& ph) {
    for (const RequestRecord& rec : ph.records) {
      ctx->checks.Attempt();
      if (rec.failed) {
        ctx->checks.Fail("learn-churn: request failed or was refused");
        continue;
      }
      ctx->checks.CheckRange(rec.card, num_rows_of(rec.generation), "learn-churn read");
    }
  };

  Replayer replayer(&service, &pool, nullptr);
  Replayer traced_replayer(&service, &pool, &ctx->tracer);
  const double nominal_s = o.trace ? o.seconds * 0.5 * 0.8 : o.seconds * kNominalShare * 0.8;
  std::vector<double> off;
  std::vector<size_t> idx;
  plan(kNominalQps, o.smoke ? 0.2 : o.seconds * kNominalShare * 0.2, &off, &idx);
  (void)replayer.Run(off, idx, tick, on_answer);  // Warm-up, not scored.

  off.clear();
  idx.clear();
  plan(kNominalQps, nominal_s, &off, &idx);
  const serve::ServiceStats svc1 = service.Stats();
  const serve::ResultCacheStats cache1 = service.CacheStats();
  Replayer::Phase nominal = replayer.Run(off, idx, tick, on_answer);
  check_answers(nominal);
  std::vector<double> lat;
  for (const RequestRecord& rec : nominal.records) {
    lat.push_back(rec.failed ? std::nan("") : rec.latency_us());
  }
  const LatencySummary nsum = SummarizeLatency(lat);

  double max_qps = 0.0;
  Replayer::Phase traced;
  if (o.trace) {
    off.clear();
    idx.clear();
    plan(kNominalQps, nominal_s, &off, &idx);
    ctx->tracer.SetRecording(true);
    traced = traced_replayer.Run(off, idx, tick, on_answer);
    ctx->tracer.SetRecording(false);
    check_answers(traced);
  } else {
    // ---- Read-rate ladder, appends continuing -> max_qps. -----------------
    const std::vector<double> rates = LadderRates(kNominalQps, 1.0, kLadderTop);
    const double step_s = o.seconds * (1.0 - kNominalShare) /
                          static_cast<double>(LadderProbes(rates.size()));
    const LadderResult lr = SearchLadder(rates, [&](size_t k) {
      off.clear();
      idx.clear();
      plan(rates[k], step_s, &off, &idx);
      // No feedback here: the labelled stream keeps the nominal phase's rate.
      Replayer::Phase ph = replayer.Run(off, idx, tick, nullptr);
      check_answers(ph);
      std::vector<double> sl;
      std::vector<bool> sf;
      for (const RequestRecord& rec : ph.records) {
        sl.push_back(rec.latency_us());
        sf.push_back(rec.failed);
      }
      const LadderStep js = JudgeStep(rates[k], sl, sf, 0, kLimitUs);
      std::fprintf(stderr, "[learn-churn] ladder %.0f/s: %zu req, %zu within -> %s\n",
                   rates[k], js.requests, js.within, js.pass ? "pass" : "fail");
      return js;
    });
    max_qps = lr.max_qps;
    if (lr.censored) WarnLadder("max_qps censored: the top ladder rate still passes");
    if (max_qps == 0.0) WarnLadder("the nominal rate fails the latency limit");
  }
  stack->ingest->Flush();
  observe(Clock::now());

  // ---- Post-churn accuracy through the service. -----------------------------
  std::vector<double> qerr;
  {
    uw::QueryGenerator score_gen(table, band_gc, o.seed * 31 + 97);
    std::vector<uw::Query> score;
    for (size_t i = 0; i < (o.smoke ? 200 : kScoreQueries); ++i) {
      score.push_back(score_gen.Generate());
    }
    std::vector<int64_t> truth;
    {
      auto pin = stack->ingest->PinTable();
      truth = uw::ExecuteCounts(table, score);
    }
    std::vector<std::future<serve::ServeResult>> futures;
    for (const uw::Query& q : score) futures.push_back(service.EstimateAsync(q));
    for (size_t i = 0; i < score.size(); ++i) {
      ctx->checks.Attempt();
      try {
        const serve::ServeResult r = futures[i].get();
        ctx->checks.CheckRange(r.card, num_rows_of(r.generation), "learn-churn score");
        qerr.push_back(uw::QError(r.card, static_cast<double>(truth[i])));
      } catch (...) {
        ctx->checks.Fail("learn-churn: scoring request threw");
      }
    }
  }

  const ingest::IngestStats is = stack->ingest->stats();
  const ingest::RefreshStats rs = stack->refresh->Stats();
  const online::AdaptationStats as = stack->adapt->Stats();
  std::fprintf(stderr,
               "[learn-churn] %zu rows appended, %llu refreshes (lag %.2fs), "
               "%llu adaptations published of %llu attempts, %llu feedback\n",
               appended, static_cast<unsigned long long>(rs.published),
               refresh_lag_s.empty() ? 0.0 : Median(refresh_lag_s),
               static_cast<unsigned long long>(as.published),
               static_cast<unsigned long long>(as.attempts),
               static_cast<unsigned long long>(feedback_given.load()));

  if (o.trace) {
    std::vector<double> tlat;
    for (const RequestRecord& rec : traced.records) {
      tlat.push_back(rec.failed ? std::nan("") : rec.latency_us());
    }
    const LatencySummary ts = SummarizeLatency(tlat);
    ctx->spans = ctx->tracer.Take();
    for (Span& s : cycle_spans) {
      s.id = ctx->tracer.NextId();
      ctx->spans.push_back(std::move(s));
    }
    const Budget budget = ComputeBudget(ctx->spans, {}, "serve");
    PrintBudget("learn-churn", budget, ts.p50_us);
    ReportTraceValidity(nsum.p50_us, ts.p50_us, traced.gen_late_us,
                        traced.records.size(), budget, ctx);
    const serve::ServiceStats svc2 = service.Stats();
    ReportServeLayer(service, svc1, svc2,
                     service.CacheStats().evictions - cache1.evictions, budget, ctx);
    MetricSet& m = ctx->metrics;
    // Fan-out of the reads that reached the model (HorizontalPartitioner
    // decides it; cache hits never fan out).
    double fq = 0.0, fe = 0.0;
    for (const RequestRecord& rec : traced.records) {
      if (rec.failed || rec.cache_hit) continue;
      fq += 1.0;
      fe += static_cast<double>(part.CandidateShards(pool[rec.query]).size());
    }
    m.Set("shard.fanout_mean", fq > 0 ? fe / fq : 0.0, "count");
    m.Set("shard.pruned_frac", fq > 0 ? 1.0 - fe / (fq * shards) : 0.0, "share");
    m.Set("core.train_s", Median(train_s), "s");
    m.Set("online.feedback_entries", static_cast<double>(feedback_given.load()), "count");
    m.Set("online.adapt_attempts", static_cast<double>(as.attempts), "count");
    m.Set("online.publish_frac",
          as.attempts > 0 ? static_cast<double>(as.published) / static_cast<double>(as.attempts)
                          : 0.0,
          "share");
    m.Set("online.rejected", static_cast<double>(as.rejected), "count");
    m.Set("online.adapt_s", adapt_s.empty() ? 0.0 : Median(adapt_s), "s");
    m.Set("ingest.rows_appended", static_cast<double>(is.rows_appended), "count");
    m.Set("ingest.append_p99_us", FiniteQuantile(append_us, 0.99), "us");
    m.Set("ingest.queue_depth_max", static_cast<double>(max_depth), "count");
    m.Set("ingest.rows_per_batch",
          is.batches > 0 ? static_cast<double>(is.rows_appended) / static_cast<double>(is.batches)
                         : 0.0,
          "count");
    m.Set("ingest.compactions", static_cast<double>(is.compactions), "count");
    m.Set("ingest.refreshes", static_cast<double>(rs.published), "count");
    m.Set("ingest.refresh_s", refresh_s.empty() ? 0.0 : Median(refresh_s), "s");
    m.Set("ingest.refit_rows", static_cast<double>(rs.rows_ingested), "count");
    const auto* tail = dynamic_cast<const ingest::DeltaAwareModel*>(
        service.CurrentSnapshot()->model.get());
    m.Set("ingest.tail_rows", tail != nullptr ? static_cast<double>(tail->tail_rows()) : 0.0,
          "count");
    return;
  }

  MetricSet& m = ctx->metrics;
  m.Set("setup_s", Median(setup_s), "s");
  ReportNominalLatency(lat, nominal.gen_late_us, ctx);
  m.Set("max_qps", max_qps, "1/s");
  ReportQError(qerr, ctx);
  m.Set("plan_cost_ratio", 1.0, "x");
  m.Set("refresh_lag_s", refresh_lag_s.empty() ? std::nan("") : Median(refresh_lag_s), "s");
  ReportFootprint(static_cast<double>(service.CurrentSnapshot()->model->SizeBytes()), ctx);
  std::fprintf(stderr, "[learn-churn] nominal %.0f/s: %zu req, p50 %.0f us, p99 %.0f us, "
                       "max_qps %.0f\n",
               kNominalQps, nominal.records.size(), nsum.p50_us, nsum.p99_us, max_qps);
}

}  // namespace perfbench
