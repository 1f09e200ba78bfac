// read-hot and read-cold: single-table estimates through
//   EstimationService -> HybridRouter (kNN, histogram floor, SPN alt)
//                     -> 4-shard ShardedServable of UAEs over SyntheticDmv.
//
// read-hot replays Zipf-skewed repeats of a few hot query classes (they fit
// in the result cache) plus new literals of the same classes, and folds
// labelled feedback into the router at fixed trace points so kNN takes over
// hot classes. read-cold replays unique broad queries with no feedback, half
// pruned to one shard and half fanned out to all four.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_set>

#include "core/uae.h"
#include "data/synthetic.h"
#include "estimators/histogram.h"
#include "estimators/spn_servable.h"
#include "online/feedback.h"
#include "router/router.h"
#include "shard/sharded_servable.h"
#include "util/threadpool.h"
#include "workload/executor.h"
#include "workload/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace data = uae::data;
namespace est = uae::estimators;
namespace online = uae::online;
namespace router = uae::router;
namespace serve = uae::serve;
namespace shard = uae::shard;
namespace uw = uae::workload;

// Offered load, chosen on a 4-core x86-64 machine at the commit that added
// the benchmark: the nominal rate sits near half of the measured capacity,
// and the latency limit is fixed, never calibrated in-process.
struct ReadSpec {
  double nominal_qps;
  double limit_us;
  double ladder_top;  ///< Ladder runs nominal * 1.06^k up to this factor.
};
constexpr ReadSpec kHotSpec{40000.0, 10000.0, 8.0};
constexpr ReadSpec kColdSpec{200.0, 50000.0, 16.0};

constexpr size_t kRows = 20000;
constexpr size_t kSmokeRows = 2000;
constexpr uint64_t kDataSeed = 11;  // The table is fixed; traffic follows --seed.
constexpr int kHistogramBuckets = 16;

// read-hot traffic shape.
constexpr int kHotClasses = 12;
constexpr int kHotLiterals = 64;       // Distinct repeats per class (768 < 4096).
constexpr double kHotRepeatShare = 0.85;
constexpr size_t kFeedbackEvery = 8;   // One answer in 8 is labelled feedback.
constexpr size_t kFoldEvery = 256;     // Feedback fold points, in labelled answers.

// read-cold hot swaps, timed after the ladder for refresh_lag_s.
constexpr int kHotSwaps = 32;

struct ReadStack {
  std::unique_ptr<data::Table> table;
  std::shared_ptr<shard::ShardedServable> sharded;
  std::shared_ptr<est::HistogramAviEstimator> floor;
  std::shared_ptr<est::SpnServable> alt;
  std::shared_ptr<router::HybridRouter> router;
  std::unique_ptr<serve::EstimationService> service;
  double train_s = 0.0;
};

/// The set-up of both read workloads: every call timed by setup_s.
std::unique_ptr<ReadStack> BuildReadStack(size_t rows, const ReadSpec& spec,
                                          Tracer* tracer) {
  auto s = std::make_unique<ReadStack>();
  s->table = std::make_unique<data::Table>(data::SyntheticDmv(rows, kDataSeed));
  Tracer* t = tracer->enabled() ? tracer : nullptr;
  const TimePoint train_start = Clock::now();
  s->sharded = std::make_shared<shard::ShardedServable>(
      *s->table, shard::ShardedServableConfig{},
      [t](const data::Table& shard_table, int,
          uint64_t shard_seed) -> std::shared_ptr<core::ServableModel> {
        core::UaeConfig uc;
        uc.seed = shard_seed;
        auto m = std::make_shared<core::Uae>(shard_table, uc);
        m->TrainDataEpochs(1);
        if (t != nullptr) return std::make_shared<TracedServable>(m, "core", t);
        return m;
      });
  s->train_s = SecondsBetween(train_start, Clock::now());
  s->floor = std::make_shared<est::HistogramAviEstimator>(*s->table,
                                                          kHistogramBuckets);
  s->alt = std::make_shared<est::SpnServable>(*s->table, est::SpnServableConfig{});
  std::vector<int32_t> domains;
  for (int c = 0; c < s->table->num_cols(); ++c) {
    domains.push_back(s->table->column(c).domain());
  }
  std::shared_ptr<core::ServableModel> primary = s->sharded;
  if (t != nullptr) primary = std::make_shared<TracedServable>(primary, "shard", t);
  router::RouterConfig rc;
  // Override: the degradation trigger needs a latency SLO to exist; half the
  // workload's limit leaves room for the floor answer to still be in time.
  rc.latency_slo_us = static_cast<uint64_t>(spec.limit_us / 2.0);
  s->router = std::make_shared<router::HybridRouter>(primary, s->floor,
                                                     std::move(domains), rc);
  s->router->SetAltBackend(s->alt);
  std::shared_ptr<core::ServableModel> served = s->router;
  if (t != nullptr) served = std::make_shared<TracedServable>(served, "router", t);
  s->service = std::make_unique<serve::EstimationService>(served);
  serve::EstimationService* svc = s->service.get();
  s->router->SetLoadProbe([svc] {
    return router::RouterLoad{svc->QueueDepth(), svc->OldestQueuedWaitMicros()};
  });
  // The first answer marks the trained model as served.
  uw::Query probe(s->table->num_cols());
  (void)s->service->Estimate(probe);
  return s;
}

/// A query template: constrained columns and how (0 '=', 1 '<=', 2 '>=',
/// 3 two-sided range).
struct Template {
  std::vector<std::pair<int, int>> filters;
  bool prune = false;  ///< Also constrain the partition column to one shard.
};

class QueryMaker {
 public:
  QueryMaker(const data::Table& table, const shard::HorizontalPartitioner& part,
             uint64_t seed)
      : table_(table), part_(part), rng_(seed) {}

  Template RandomTemplate(int min_filters, int max_filters, bool prune) {
    Template t;
    t.prune = prune;
    const int pcol = part_.partition_col();
    const int n = static_cast<int>(rng_.UniformInt(min_filters, max_filters));
    std::vector<int> cols;
    for (int c = 0; c < table_.num_cols(); ++c) {
      if (c != pcol) cols.push_back(c);
    }
    rng_.Shuffle(&cols);
    for (int i = 0; i < n && i < static_cast<int>(cols.size()); ++i) {
      t.filters.emplace_back(cols[static_cast<size_t>(i)],
                             static_cast<int>(rng_.UniformInt(0, 3)));
    }
    std::sort(t.filters.begin(), t.filters.end());
    return t;
  }

  /// Instantiates `t` with literals from a uniformly sampled row, so every
  /// query matches at least that row.
  uw::Query Instantiate(const Template& t) {
    const size_t row = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(table_.num_rows()) - 1));
    uw::Query q(table_.num_cols());
    for (const auto& [col, kind] : t.filters) {
      const data::Column& column = table_.column(col);
      const int32_t domain = column.domain();
      const int32_t code = column.code_at(row);
      switch (kind) {
        case 0:
          q.AddPredicate({col, uw::Op::kEq, code, {}}, domain);
          break;
        case 1:
          q.AddPredicate({col, uw::Op::kLe, code, {}}, domain);
          break;
        case 2:
          q.AddPredicate({col, uw::Op::kGe, code, {}}, domain);
          break;
        default: {
          const int32_t w = std::max<int32_t>(1, domain / 10);
          q.AddPredicate({col, uw::Op::kGe, std::max(0, code - w), {}}, domain);
          q.AddPredicate({col, uw::Op::kLe, std::min(domain - 1, code + w), {}},
                         domain);
        }
      }
    }
    if (t.prune) {
      const int pcol = part_.partition_col();
      const data::Column& column = table_.column(pcol);
      const int32_t code = column.code_at(row);
      const shard::ShardDescriptor& sd = part_.shard(part_.ShardForCode(code));
      const int32_t w = std::max<int32_t>(1, column.domain() / 50);
      q.AddPredicate({pcol, uw::Op::kGe, std::max(sd.code_lo, code - w), {}},
                     column.domain());
      q.AddPredicate({pcol, uw::Op::kLe, std::min(sd.code_hi, code + w), {}},
                     column.domain());
    }
    return q;
  }

  uae::util::Rng& rng() { return rng_; }

 private:
  const data::Table& table_;
  const shard::HorizontalPartitioner& part_;
  uae::util::Rng rng_;
};

/// Generates the request stream of one phase, appending new queries to
/// `pool` and returning the pool index of each request.
class Traffic {
 public:
  Traffic(bool hot, const data::Table& table,
          const shard::HorizontalPartitioner& part, uint64_t seed)
      : hot_(hot), maker_(table, part, seed) {
    if (hot_) {
      for (int c = 0; c < kHotClasses; ++c) {
        templates_.push_back(maker_.RandomTemplate(2, 3, c % 2 == 1));
        for (int j = 0; j < kHotLiterals; ++j) {
          uw::Query q = maker_.Instantiate(templates_.back());
          pool_.push_back(std::move(q));
        }
      }
    }
  }

  std::vector<size_t> Next(size_t n) {
    std::vector<size_t> idx;
    idx.reserve(n);
    uae::util::Rng& rng = maker_.rng();
    for (size_t i = 0; i < n; ++i) {
      if (hot_) {
        const int c = static_cast<int>(rng.Zipf(kHotClasses, 1.0));
        if (rng.Uniform() < kHotRepeatShare) {
          const int j = static_cast<int>(rng.Zipf(kHotLiterals, 0.9));
          idx.push_back(static_cast<size_t>(c * kHotLiterals + j));
          continue;
        }
        pool_.push_back(maker_.Instantiate(templates_[static_cast<size_t>(c)]));
      } else {
        // Every fingerprint unique; broad classes, half pruned to one shard.
        for (;;) {
          const bool prune = (pool_.size() % 2) == 1;
          uw::Query q = maker_.Instantiate(maker_.RandomTemplate(1, 3, prune));
          if (seen_.insert(q.Fingerprint()).second) {
            pool_.push_back(std::move(q));
            break;
          }
        }
      }
      idx.push_back(pool_.size() - 1);
    }
    return idx;
  }

  std::vector<uw::Query>* pool() { return &pool_; }

 private:
  bool hot_;
  QueryMaker maker_;
  std::vector<Template> templates_;
  std::vector<uw::Query> pool_;
  std::unordered_set<uint64_t> seen_;
};

router::RouterStatsSnapshot RouterDelta(const router::RouterStatsSnapshot& a,
                                        const router::RouterStatsSnapshot& b) {
  router::RouterStatsSnapshot d = b;
  for (size_t i = 0; i < router::kNumBackends; ++i) {
    d.backends[i].requests = b.backends[i].requests - a.backends[i].requests;
  }
  d.requests = b.requests - a.requests;
  d.degraded_requests = b.degraded_requests - a.degraded_requests;
  return d;
}

}  // namespace

void RunReadWorkload(bool hot, RunContext* ctx) {
  const Options& opt = ctx->opt;
  const ReadSpec& spec = hot ? kHotSpec : kColdSpec;
  const size_t rows = opt.smoke ? kSmokeRows : kRows;
  const char* name = hot ? "read-hot" : "read-cold";

  // ---- Set-up, repeated; the last stack serves the run. --------------------
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::unique_ptr<ReadStack> stack;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    const TimePoint t0 = Clock::now();
    stack = BuildReadStack(rows, spec, &ctx->tracer);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    train_s.push_back(stack->train_s);
  }
  PrintSetup(name, setup_s, train_s);
  serve::EstimationService& service = *stack->service;
  router::HybridRouter& rtr = *stack->router;
  const data::Table& table = *stack->table;
  const double num_rows = static_cast<double>(rtr.num_rows());

  // ---- Trace generation and truth labelling (untimed). ---------------------
  uae::util::Rng arrivals(opt.seed * 7919 + 1);
  Traffic traffic(hot, table, stack->sharded->partitioner(), opt.seed);
  const double nominal_s = opt.trace ? opt.seconds * 0.5 * 0.8
                                     : opt.seconds * kNominalShare * 0.8;
  const double warm_s = opt.smoke ? 0.2 : (opt.trace ? opt.seconds * 0.1 : opt.seconds * kNominalShare * 0.2);
  struct Planned {
    std::vector<double> offsets;
    std::vector<size_t> index;
  };
  auto plan = [&](double rate, double seconds) {
    Planned p;
    p.offsets = PoissonOffsets(rate, seconds, &arrivals);
    p.index = traffic.Next(p.offsets.size());
    return p;
  };
  const Planned warm = plan(spec.nominal_qps, warm_s);
  std::vector<Planned> nominal_phases;
  nominal_phases.push_back(plan(spec.nominal_qps, nominal_s));
  if (opt.trace) nominal_phases.push_back(plan(spec.nominal_qps, nominal_s));
  std::vector<uw::Query>& pool = *traffic.pool();
  // Exact truths for every query the warm-up and nominal phases ask.
  const size_t labelled = pool.size();
  const std::vector<double> rates =
      LadderRates(spec.nominal_qps, 1.0, spec.ladder_top);
  const double step_s = opt.seconds * (1.0 - kNominalShare) /
                        static_cast<double>(LadderProbes(rates.size()));
  std::vector<double> truth(labelled);
  {
    std::vector<int64_t> counts =
        uw::ExecuteCounts(table, std::span<const uw::Query>(pool.data(), labelled));
    for (size_t i = 0; i < labelled; ++i) truth[i] = static_cast<double>(counts[i]);
  }

  // ---- Feedback (read-hot only): labelled answers folded at trace points. --
  // One worker thread folds feedback into the router, off the answer path.
  std::unique_ptr<uae::util::ThreadPool> learner;
  std::mutex fb_mu;
  std::vector<online::FeedbackEntry> fb_batch;
  TimePoint fb_oldest_due{};
  std::vector<double> fold_us;
  std::vector<double> fold_lag_s;
  size_t answered_for_feedback = 0;
  size_t answered_total = 0;
  if (hot) learner = std::make_unique<uae::util::ThreadPool>(1);
  auto on_answer = [&](size_t, const RequestRecord& rec) {
    if (!hot || rec.failed || rec.query >= labelled) return;
    std::lock_guard<std::mutex> lock(fb_mu);
    if (++answered_total % kFeedbackEvery != 0) return;
    if (fb_batch.empty()) fb_oldest_due = rec.due;
    online::FeedbackEntry e;
    e.query = pool[rec.query];
    e.true_card = truth[rec.query];
    e.estimated_card = rec.card;
    e.generation = rec.generation;
    fb_batch.push_back(std::move(e));
    if (++answered_for_feedback % kFoldEvery != 0) return;
    auto batch = std::make_shared<std::vector<online::FeedbackEntry>>(
        std::move(fb_batch));
    fb_batch.clear();
    const TimePoint oldest = fb_oldest_due;
    learner->Submit([&, batch, oldest] {
      const TimePoint t0 = Clock::now();
      rtr.ObserveFeedback(*batch);
      const TimePoint t1 = Clock::now();
      std::lock_guard<std::mutex> l(fb_mu);
      fold_us.push_back(MicrosBetween(t0, t1));
      fold_lag_s.push_back(SecondsBetween(oldest, t1));
    });
  };

  Replayer replayer(&service, &pool, nullptr);
  Replayer traced_replayer(&service, &pool, &ctx->tracer);
  auto check_answers = [&](const Replayer::Phase& ph) {
    for (const RequestRecord& rec : ph.records) {
      ctx->checks.Attempt();
      if (rec.failed) {
        ctx->checks.Fail(std::string(name) + ": request failed or was refused");
        continue;
      }
      ctx->checks.CheckRange(rec.card, num_rows, name);
    }
  };

  // Warm-up: fills the cache, builds lazy inference planes, and (read-hot)
  // lets feedback promote hot classes. Not scored.
  (void)replayer.Run(warm.offsets, warm.index, nullptr, on_answer);
  if (learner) learner->Wait();

  const serve::ServiceStats svc0 = service.Stats();
  const router::RouterStatsSnapshot rt0 = rtr.RouterStats();
  Replayer::Phase nominal =
      replayer.Run(nominal_phases[0].offsets, nominal_phases[0].index, nullptr,
                   on_answer);
  const serve::ServiceStats svc1 = service.Stats();
  const router::RouterStatsSnapshot rt1 = rtr.RouterStats();
  check_answers(nominal);
  std::vector<double> lat;
  std::vector<double> qerr;
  for (const RequestRecord& rec : nominal.records) {
    lat.push_back(rec.failed ? std::nan("") : rec.latency_us());
    if (!rec.failed) qerr.push_back(uw::QError(rec.card, truth[rec.query]));
  }
  const LatencySummary nom = SummarizeLatency(lat);

  if (opt.trace) {
    ctx->tracer.SetRecording(true);
    Replayer::Phase traced = traced_replayer.Run(
        nominal_phases[1].offsets, nominal_phases[1].index, nullptr, on_answer);
    ctx->tracer.SetRecording(false);
    const serve::ServiceStats svc2 = service.Stats();
    const router::RouterStatsSnapshot rt2 = rtr.RouterStats();
    if (learner) learner->Wait();
    check_answers(traced);
    std::vector<double> tlat;
    for (const RequestRecord& rec : traced.records) {
      tlat.push_back(rec.failed ? std::nan("") : rec.latency_us());
    }
    const LatencySummary tr = SummarizeLatency(tlat);
    ctx->spans = ctx->tracer.Take();
    const Budget budget =
        ComputeBudget(ctx->spans, {"router", "shard", "core"}, "serve");
    PrintBudget(name, budget, tr.p50_us);
    ReportTraceValidity(nom.p50_us, tr.p50_us, traced.gen_late_us,
                        traced.records.size(), budget, ctx);

    ReportServeLayer(service, svc1, svc2, service.CacheStats().evictions, budget,
                     ctx);
    MetricSet& m = ctx->metrics;
    const router::RouterStatsSnapshot d = RouterDelta(rt1, rt2);
    const double routed = std::max<double>(1.0, static_cast<double>(d.requests));
    m.Set("router.frac.primary",
          static_cast<double>(d.backends[0].requests) / routed, "share");
    m.Set("router.frac.knn", static_cast<double>(d.backends[1].requests) / routed,
          "share");
    m.Set("router.frac.floor",
          static_cast<double>(d.backends[2].requests) / routed, "share");
    m.Set("router.frac.alt", static_cast<double>(d.backends[3].requests) / routed,
          "share");
    m.Set("router.degraded_frac",
          static_cast<double>(d.degraded_requests) / routed, "share");
    m.Set("router.knn_classes", static_cast<double>(rt2.knn_classes), "count");
    m.Set("router.alt_classes", static_cast<double>(rt2.alt_classes), "count");
    m.Set("router.knn_p99_us", rt2.backends[1].latency.p99_us, "us");
    m.Set("router.feedback_us", fold_us.empty() ? 0.0 : Median(fold_us), "us");

    // Fan-out: shard-model evaluations per query that reached the shards.
    double shard_queries = 0.0;
    double core_queries = 0.0;
    double core_calls = 0.0;
    double core_us = 0.0;
    for (const Span& s : ctx->spans) {
      if (s.layer == "shard") shard_queries += static_cast<double>(s.keys.size());
      if (s.layer == "core") {
        core_queries += static_cast<double>(s.keys.size());
        core_calls += 1.0;
        core_us += MicrosBetween(s.start, s.end);
      }
    }
    const int shards = stack->sharded->num_shards();
    const double fanout = shard_queries > 0 ? core_queries / shard_queries : 0.0;
    m.Set("shard.fanout_mean", fanout, "count");
    m.Set("shard.pruned_frac", shard_queries > 0 ? 1.0 - fanout / shards : 0.0,
          "share");
    m.Set("core.calls", core_calls, "count");
    m.Set("core.queries_per_call", core_calls > 0 ? core_queries / core_calls : 0.0,
          "count");
    m.Set("core.us_per_query", core_queries > 0 ? core_us / core_queries : 0.0,
          "us");
    m.Set("core.busy_frac", core_us / MicrosBetween(traced.start, traced.end),
          "share");
    m.Set("core.train_s", Median(train_s), "s");
    (void)rt0;
    (void)svc0;
    return;
  }

  // ---- Rate ladder -> max_qps. ----------------------------------------------
  const LadderResult ladder = SearchLadder(rates, [&](size_t k) {
    const Planned step = plan(rates[k], step_s);
    const router::RouterStatsSnapshot before = rtr.RouterStats();
    Replayer::Phase ph = replayer.Run(step.offsets, step.index, nullptr, nullptr);
    const router::RouterStatsSnapshot after = rtr.RouterStats();
    check_answers(ph);
    std::vector<double> sl;
    std::vector<bool> sf;
    for (const RequestRecord& rec : ph.records) {
      sl.push_back(rec.latency_us());
      sf.push_back(rec.failed);
    }
    const LadderStep js = JudgeStep(
        rates[k], sl, sf,
        static_cast<size_t>(after.degraded_requests - before.degraded_requests),
        spec.limit_us);
    std::fprintf(stderr, "[%s] ladder %.0f/s: %zu req, %zu within, %zu degraded -> %s\n",
                 name, rates[k], js.requests, js.within, js.degraded,
                 js.pass ? "pass" : "fail");
    return js;
  });
  const double max_qps = ladder.max_qps;
  if (ladder.censored) {
    WarnLadder("max_qps censored: the top ladder rate still passes");
  }
  if (max_qps == 0.0) {
    WarnLadder("the nominal rate fails the latency limit");
  }

  // ---- Bitwise re-estimates on the answering snapshot (read-cold). ---------
  if (!hot) {
    uae::util::Rng pick(opt.seed ^ 0x5eedull);
    for (const RequestRecord& rec : nominal.records) {
      if (rec.failed || pick.Uniform() >= 0.05) continue;
      const uw::Query& q = pool[rec.query];
      const double direct = stack->sharded->EstimateCard(q);
      // A request the router degraded was answered by the floor instead.
      if (rec.card != direct && rec.card == stack->floor->EstimateCard(q)) continue;
      ctx->checks.CheckBitwise(rec.card, direct, "read-cold primary");
    }
  }

  // ---- Hot swaps (read-cold): how soon a model update answers. -------------
  // read-cold learns nothing while it runs, so its model update is an
  // operator's hot swap: copy the served stack, publish the copy, and ask it
  // one fanned-out query, which every shard model of the copy answers. The
  // lag runs from the publish to that answer, so it includes the cache
  // eviction and the copy's lazily built inference planes. The copy itself
  // is not timed: it is a deep copy of every shard's training state, whose
  // cost followed the host's page-fault speed from run to run.
  std::vector<double> swap_lag_s;
  if (!hot) {
    std::vector<size_t> probes;
    while (probes.size() < static_cast<size_t>(kHotSwaps)) {
      for (size_t i : traffic.Next(2)) {
        if (i % 2 == 0) probes.push_back(i);  // Even pool slots fan out.
      }
    }
    for (size_t i : probes) {
      std::shared_ptr<core::ServableModel> update = rtr.CloneServable();
      const TimePoint t0 = Clock::now();
      const uint64_t generation = service.PublishSnapshot(std::move(update));
      const serve::ServeResult r = service.Estimate(pool[i]);
      swap_lag_s.push_back(SecondsBetween(t0, Clock::now()));
      ctx->checks.Attempt();
      if (r.generation != generation) {
        ctx->checks.Fail("read-cold: hot swap answered by generation " +
                         std::to_string(r.generation) + ", published " +
                         std::to_string(generation));
        continue;
      }
      ctx->checks.CheckRange(r.card, num_rows, "read-cold hot swap");
    }
  }
  if (learner) learner->Wait();

  MetricSet& m = ctx->metrics;
  m.Set("setup_s", Median(setup_s), "s");
  ReportNominalLatency(lat, nominal.gen_late_us, ctx);
  m.Set("max_qps", max_qps, "1/s");
  ReportQError(qerr, ctx);
  m.Set("plan_cost_ratio", 1.0, "x");
  if (hot) {
    m.Set("refresh_lag_s", fold_lag_s.empty() ? std::nan("") : Median(fold_lag_s), "s");
  } else {
    m.Set("refresh_lag_s", Median(swap_lag_s), "s");
    // The two request kinds separately: odd pool slots are pruned to one
    // shard, even ones fan out to all shards.
    std::vector<double> pruned_us, fanned_us;
    for (const RequestRecord& rec : nominal.records) {
      if (rec.failed) continue;
      (rec.query % 2 == 1 ? pruned_us : fanned_us).push_back(rec.latency_us());
    }
    std::fprintf(stderr,
                 "[read-cold] nominal p50 pruned %.0f us, fanned out %.0f us; "
                 "hot swap lag %.2f ms (min %.2f)\n",
                 FiniteQuantile(pruned_us, 0.5), FiniteQuantile(fanned_us, 0.5),
                 Median(swap_lag_s) * 1e3,
                 *std::min_element(swap_lag_s.begin(), swap_lag_s.end()) * 1e3);
  }
  ReportFootprint(static_cast<double>(service.CurrentSnapshot()->model->SizeBytes()),
                  ctx);
  std::fprintf(stderr,
               "[%s] nominal %.0f/s: %zu req, p50 %.0f us, p99 %.0f us, "
               "hit %.2f, knn %.2f, max_qps %.0f\n",
               name, spec.nominal_qps, nominal.records.size(), nom.p50_us,
               nom.p99_us,
               static_cast<double>(svc1.cache_hits - svc0.cache_hits) /
                   std::max<double>(1.0, static_cast<double>(svc1.requests - svc0.requests)),
               static_cast<double>(RouterDelta(rt0, rt1).backends[1].requests) /
                   std::max<double>(1.0, static_cast<double>(RouterDelta(rt0, rt1).requests)),
               max_qps);
}

}  // namespace perfbench
