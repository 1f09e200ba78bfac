// plan-join: planning sessions of a query optimizer through
//   ServedCardProvider (+ SubplanMemo) -> EstimationService
//                                      -> monolithic join UAE over
//                                         BuildImdbStar(JobMDims()).
//
// Sessions arrive open-loop; a share repeat earlier join queries, so the
// memo (filled off the query path by SubplanMemoRefresher from the chosen
// plans' true prefix cardinalities) and the result cache answer part of
// them. This is the only workload on the join path, which runs the
// per-query progressive sampler rather than the wavefront.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <unordered_set>

#include "core/uae.h"
#include "data/imdb_star.h"
#include "online/feedback.h"
#include "optimizer/card_provider.h"
#include "optimizer/dp_optimizer.h"
#include "optimizer/subplan_memo.h"
#include "workload/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace data = uae::data;
namespace online = uae::online;
namespace opt = uae::optimizer;
namespace serve = uae::serve;
namespace uw = uae::workload;

// Chosen on a 4-core x86-64 machine at the commit that added the benchmark.
constexpr double kNominalSessions = 400.0;  // Sessions per second.
constexpr double kSessionLimitUs = 400000.0;
constexpr double kLadderTop = 16.0;
constexpr size_t kTitles = 4000;
constexpr size_t kSmokeTitles = 600;
constexpr uint64_t kDataSeed = 7;
constexpr double kRepeatShare = 0.95;  // Sessions that replan a hot query.
constexpr size_t kHotQueries = 64;      // Even at 31 sub-plans each, < 4096 cache entries.
constexpr int kPlannerThreads = 3;
constexpr double kBitwiseShare = 0.005;  // Sub-plan answers re-estimated directly.
constexpr double kMemoMatch = 1e-9;      // Relative distance of a memo answer to its count.

struct JoinStack {
  std::unique_ptr<data::JoinUniverse> uni;
  std::shared_ptr<core::Uae> model;
  std::unique_ptr<serve::EstimationService> service;
  std::unique_ptr<opt::SubplanMemo> memo;
  std::unique_ptr<online::FeedbackCollector> feedback;
  std::unique_ptr<opt::SubplanMemoRefresher> refresher;
  std::unique_ptr<opt::ServedCardProvider> provider;
  double train_s = 0.0;
  ~JoinStack() {
    if (refresher) refresher->Stop();
  }
};

std::unique_ptr<JoinStack> BuildJoinStack(size_t titles, Tracer* tracer) {
  auto s = std::make_unique<JoinStack>();
  data::ImdbStarConfig sc;
  sc.num_titles = titles;
  sc.seed = kDataSeed;
  sc.dims = data::JobMDims();
  s->uni = std::make_unique<data::JoinUniverse>(data::BuildImdbStar(sc));
  const TimePoint t0 = Clock::now();
  s->model = std::make_shared<core::Uae>(*s->uni, core::UaeConfig{});
  s->model->TrainDataEpochs(1);
  s->train_s = SecondsBetween(t0, Clock::now());
  std::shared_ptr<core::ServableModel> served = s->model;
  if (tracer->enabled()) {
    served = std::make_shared<TracedServable>(served, "core", tracer);
  }
  s->service = std::make_unique<serve::EstimationService>(served);
  s->memo = std::make_unique<opt::SubplanMemo>();
  s->feedback = std::make_unique<online::FeedbackCollector>();
  s->refresher = std::make_unique<opt::SubplanMemoRefresher>(
      *s->uni, s->memo.get(), s->feedback.get());
  s->refresher->Start();
  s->provider = std::make_unique<opt::ServedCardProvider>(*s->uni, s->service.get(),
                                                         s->memo.get());
  return s;
}

/// The sub-plans the DP costs: >= 2 tables, containing the fact table.
std::vector<uint32_t> JoinSubplans(uint32_t full) {
  std::vector<uint32_t> out;
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & full) != s || __builtin_popcount(s) < 2 || !(s & 1u)) continue;
    out.push_back(s);
  }
  return out;
}

/// Records every sub-plan cardinality the optimizer was given in a session.
class RecordingProvider : public opt::JoinCardProvider {
 public:
  explicit RecordingProvider(opt::JoinCardProvider* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  double Card(const uw::JoinQuery& query, uint32_t submask) override {
    const double card = inner_->Card(query, submask);
    cards.emplace_back(submask, card);
    return card;
  }
  void Prewarm(const uw::JoinQuery& query,
               std::span<const uint32_t> submasks) override {
    inner_->Prewarm(query, submasks);
  }
  std::vector<std::pair<uint32_t, double>> cards;

 private:
  opt::JoinCardProvider* inner_;
};

struct Session {
  size_t query = 0;
  TimePoint due{};
  TimePoint start{};
  TimePoint prewarmed{};
  TimePoint answer{};
  std::vector<int> order;
  std::vector<std::pair<uint32_t, double>> cards;
  bool failed = false;
};

/// Runs one phase: the generator thread hands sessions to the planner
/// threads at their due times; latency runs from due time to the plan.
std::vector<Session> RunSessions(JoinStack* stack,
                                 const std::vector<uw::JoinQuery>& queries,
                                 const std::vector<double>& offsets,
                                 const std::vector<size_t>& index,
                                 const std::vector<std::vector<double>>& prefix_truth_of,
                                 Tracer* tracer, std::vector<double>* gen_late_us,
                                 const std::function<void(TimePoint)>& tick,
                                 const std::function<void(const Session&,
                                                          const std::function<void()>&)>&
                                     on_feedback) {
  std::vector<Session> sessions(offsets.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> ready;
  bool closed = false;
  const bool tracing = tracer != nullptr && tracer->recording();
  const data::JoinUniverse& uni = *stack->uni;

  auto plan = [&](size_t i) {
    Session& s = sessions[i];
    const uw::JoinQuery& q = queries[s.query];
    s.start = Clock::now();
    try {
      const std::vector<uint32_t> subs = JoinSubplans(q.table_mask);
      stack->provider->Prewarm(q, subs);
      s.prewarmed = Clock::now();
      RecordingProvider rec(stack->provider.get());
      opt::PlanResult plan = opt::OptimizeJoinOrder(uni, q, &rec);
      s.answer = Clock::now();
      s.order = std::move(plan.join_order);
      s.cards = std::move(rec.cards);
    } catch (...) {
      s.answer = Clock::now();
      s.failed = true;
      return;
    }
    // Executed-plan feedback: the chosen plan's prefixes carry their true
    // cardinalities (precomputed; identical to what executing it reports).
    std::vector<double> steps;
    uint32_t prefix = 1u << s.order[0];
    for (size_t k = 1; k < s.order.size(); ++k) {
      prefix |= 1u << s.order[k];
      steps.push_back(prefix_truth_of[s.query][prefix]);
    }
    if (on_feedback) {
      on_feedback(s, [&] {
        opt::RecordPlanFeedback(uni, q, s.order, steps,
                                stack->service->CurrentGeneration(),
                                stack->feedback.get());
      });
    }
    if (tracing) {
      Span req;
      req.id = tracer->NextId();
      req.layer = "request";
      req.start = s.due;
      req.end = s.answer;
      req.request = i + 1;
      for (uint32_t m : JoinSubplans(q.table_mask)) {
        req.keys.push_back(uw::JoinFingerprint(uw::RestrictToSubset(uni, q, m)));
      }
      Span pre;
      pre.id = tracer->NextId();
      pre.parent = req.id;
      pre.layer = "optimizer.prewarm";
      pre.start = s.start;
      pre.end = s.prewarmed;
      pre.request = i + 1;
      Span dp = pre;
      dp.id = tracer->NextId();
      dp.layer = "optimizer.dp";
      dp.start = s.prewarmed;
      dp.end = s.answer;
      tracer->Record(std::move(req));
      tracer->Record(std::move(pre));
      tracer->Record(std::move(dp));
    }
  };

  std::vector<std::thread> planners;
  for (int t = 0; t < kPlannerThreads; ++t) {
    planners.emplace_back([&] {
      for (;;) {
        size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !ready.empty(); });
          if (ready.empty()) return;
          i = ready.front();
          ready.pop_front();
        }
        plan(i);
      }
    });
  }
  const TimePoint start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < offsets.size(); ++i) {
    const TimePoint due = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(offsets[i]));
    if (tick) tick(Clock::now());
    std::this_thread::sleep_until(due);
    sessions[i].query = index[i];
    sessions[i].due = due;
    gen_late_us->push_back(MicrosBetween(due, Clock::now()));
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : planners) t.join();
  return sessions;
}

double ProductOfRows(const data::JoinUniverse& uni, uint32_t mask) {
  double p = 1.0;
  for (int t = 0; t < uni.NumTables(); ++t) {
    if (mask & (1u << t)) {
      p *= static_cast<double>(uni.base_tables[static_cast<size_t>(t)].num_rows());
    }
  }
  return p;
}

}  // namespace

void RunPlanJoin(RunContext* ctx) {
  const Options& o = ctx->opt;
  const size_t titles = o.smoke ? kSmokeTitles : kTitles;

  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::unique_ptr<JoinStack> stack;
  const int repeats = o.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    const TimePoint t0 = Clock::now();
    stack = BuildJoinStack(titles, &ctx->tracer);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    train_s.push_back(stack->train_s);
  }
  PrintSetup("plan-join", setup_s, train_s);
  const data::JoinUniverse& uni = *stack->uni;

  // ---- Sessions and truths (untimed). ---------------------------------------
  uae::util::Rng rng(o.seed * 104729 + 3);
  uw::JoinGeneratorConfig gc;
  gc.focused = false;  // Random table subsets: 2 to 6 tables per query.
  uw::JoinQueryGenerator gen(uni, gc, o.seed);
  std::vector<uw::JoinQuery> queries;
  std::unordered_set<uint64_t> seen;
  // Repeats replan one of the first kHotQueries distinct queries (their
  // sub-plans fit in the result cache); every other session plans a new one.
  auto next_index = [&]() -> size_t {
    if (queries.size() >= kHotQueries && rng.Uniform() < kRepeatShare) {
      return static_cast<size_t>(rng.Zipf(kHotQueries, 0.8));
    }
    for (;;) {
      uw::JoinQuery q = gen.Generate();
      if (seen.insert(uw::JoinFingerprint(q)).second) {
        queries.push_back(std::move(q));
        return queries.size() - 1;
      }
    }
  };
  struct Planned {
    std::vector<double> offsets;
    std::vector<size_t> index;
  };
  auto plan_phase = [&](double rate, double seconds) {
    Planned p;
    p.offsets = PoissonOffsets(rate, seconds, &rng);
    for (size_t i = 0; i < p.offsets.size(); ++i) p.index.push_back(next_index());
    return p;
  };
  const double nominal_s = o.trace ? o.seconds * 0.5 * 0.8 : o.seconds * kNominalShare * 0.8;
  const Planned warm =
      plan_phase(kNominalSessions, o.smoke ? 0.2 : o.seconds * kNominalShare * 0.2);
  std::vector<Planned> nominal;
  nominal.push_back(plan_phase(kNominalSessions, nominal_s));
  if (o.trace) nominal.push_back(plan_phase(kNominalSessions, nominal_s));
  const std::vector<double> rates = LadderRates(kNominalSessions, 1.0, kLadderTop);
  const double step_s = o.seconds * (1.0 - kNominalShare) /
                        static_cast<double>(LadderProbes(rates.size()));
  // True cardinalities of every sub-plan of every query, and the cost of
  // the plan chosen with them; labelled between phases, never while timed.
  opt::TrueCardProvider truth(uni);
  std::vector<std::vector<double>> sub_truth;
  std::vector<double> optimal_cost;
  auto label_new = [&] {
    for (size_t i = sub_truth.size(); i < queries.size(); ++i) {
      sub_truth.emplace_back(1u << uni.NumTables(), 0.0);
      for (uint32_t m : JoinSubplans(queries[i].table_mask)) {
        sub_truth[i][m] = truth.Card(queries[i], m);
      }
      opt::PlanResult best = opt::OptimizeJoinOrder(uni, queries[i], &truth);
      optimal_cost.push_back(std::max(best.estimated_cost, 1.0));
    }
  };
  label_new();
  std::fprintf(stderr, "[plan-join] %zu distinct queries labelled\n", queries.size());

  // Memo freshness: fold time minus the due time of the oldest session whose
  // feedback the fold absorbed (polled from the generator thread).
  std::mutex lag_mu;
  std::deque<std::pair<TimePoint, uint64_t>> unfolded;  // (due, cumulative obs).
  std::vector<double> memo_lag_s;
  auto tick = [&](TimePoint now) {
    const uint64_t obs = stack->memo->Stats().observations;
    std::lock_guard<std::mutex> lock(lag_mu);
    bool folded_any = false;
    TimePoint oldest{};
    while (!unfolded.empty() && unfolded.front().second <= obs) {
      if (!folded_any) oldest = unfolded.front().first;
      folded_any = true;
      unfolded.pop_front();
    }
    if (folded_any) memo_lag_s.push_back(SecondsBetween(oldest, now));
  };

  // Feedback is recorded and counted under one lock, so the running count
  // follows the collector's order and the memo's observation counter.
  uint64_t cumulative_obs = stack->memo->Stats().observations;
  auto on_feedback = [&](const Session& s, const std::function<void()>& record) {
    std::lock_guard<std::mutex> lock(lag_mu);
    record();
    cumulative_obs += s.order.size() - 1;
    unfolded.emplace_back(s.due, cumulative_obs);
  };
  auto run = [&](const Planned& p, Tracer* tracer, std::vector<double>* late) {
    return RunSessions(stack.get(), queries, p.offsets, p.index, sub_truth, tracer,
                       late, tick, on_feedback);
  };

  std::vector<double> late;
  (void)run(warm, nullptr, &late);
  late.clear();
  const serve::ServiceStats svc0 = stack->service->Stats();
  const opt::SubplanMemoStats memo0 = stack->memo->Stats();
  std::vector<Session> nom = run(nominal[0], nullptr, &late);
  const serve::ServiceStats svc1 = stack->service->Stats();
  const opt::SubplanMemoStats memo1 = stack->memo->Stats();

  // ---- Checks, q-error and plan quality of the nominal phase. --------------
  std::vector<double> lat;
  std::vector<double> qerr;
  std::set<std::pair<size_t, uint32_t>> scored;  // (query, sub-plan) scored.
  double log_ratio = 0.0;
  size_t planned = 0;
  uae::util::Rng pick(o.seed ^ 0x5eedull);
  auto check_sessions = [&](const std::vector<Session>& ss, bool score) {
    for (const Session& s : ss) {
      ctx->checks.Attempt();
      if (s.failed) {
        ctx->checks.Fail("plan-join: planning session threw");
        if (score) lat.push_back(std::nan(""));
        continue;
      }
      const uw::JoinQuery& q = queries[s.query];
      bool ok = true;
      for (const auto& [mask, card] : s.cards) {
        ctx->checks.Attempt();
        ok &= ctx->checks.CheckRange(card, ProductOfRows(uni, mask), "plan-join sub-plan");
        if (score && pick.Uniform() < kBitwiseShare) {
          // A sub-plan answered by the memo carries the exp of a log-space
          // average of its observed exact counts; every other answer must
          // equal the snapshot's own estimate bit for bit. The exact count
          // of one sub-plan differs in its last bits between executions
          // (2025.0000000000018 and ...16), so a memo answer is known by
          // lying within 1e-9 of the count, not by bitwise equality.
          const double t = std::max(sub_truth[s.query][mask], 1.0);
          if (std::abs(card - t) > kMemoMatch * t) {
            ok &= ctx->checks.CheckBitwise(
                card, stack->model->EstimateJoinCard(uw::RestrictToSubset(uni, q, mask)),
                "plan-join sub-plan");
          }
        }
        // Each distinct sub-plan is scored once: replanned hot queries would
        // otherwise repeat the same few estimates thousands of times.
        if (score && scored.insert({s.query, mask}).second) {
          qerr.push_back(uw::QError(card, sub_truth[s.query][mask]));
        }
      }
      if (!score) continue;
      lat.push_back(MicrosBetween(s.due, s.answer));
      double chosen = 0.0;
      uint32_t prefix = 1u << s.order[0];
      for (size_t k = 1; k < s.order.size(); ++k) {
        prefix |= 1u << s.order[k];
        chosen += sub_truth[s.query][prefix];
      }
      log_ratio += std::log(std::max(chosen, 1.0) / optimal_cost[s.query]);
      ++planned;
    }
  };
  check_sessions(nom, true);
  const LatencySummary nsum = SummarizeLatency(lat);

  if (o.trace) {
    std::vector<double> tlate;
    ctx->tracer.SetRecording(true);
    std::vector<Session> tr = run(nominal[1], &ctx->tracer, &tlate);
    ctx->tracer.SetRecording(false);
    const serve::ServiceStats svc2 = stack->service->Stats();
    const opt::SubplanMemoStats memo2 = stack->memo->Stats();
    std::vector<double> tlat;
    double prewarm_us = 0.0, dp_us = 0.0, subplans = 0.0;
    for (const Session& s : tr) {
      tlat.push_back(s.failed ? std::nan("") : MicrosBetween(s.due, s.answer));
      prewarm_us += MicrosBetween(s.start, s.prewarmed);
      dp_us += MicrosBetween(s.prewarmed, s.answer);
      subplans += static_cast<double>(s.cards.size());
    }
    lat.clear();
    qerr.clear();
    check_sessions(tr, false);
    const double n = std::max<double>(1.0, static_cast<double>(tr.size()));
    const LatencySummary ts = SummarizeLatency(tlat);
    ctx->spans = ctx->tracer.Take();
    const Budget budget = ComputeBudget(ctx->spans, {"core"}, "serve");
    PrintBudget("plan-join", budget, ts.p50_us);
    ReportTraceValidity(nsum.p50_us, ts.p50_us, tlate, tr.size(), budget, ctx);
    ReportServeLayer(*stack->service, svc1, svc2, stack->service->CacheStats().evictions,
                     budget, ctx);
    MetricSet& m = ctx->metrics;
    double core_us = 0.0, core_q = 0.0, core_calls = 0.0;
    for (const Span& s : ctx->spans) {
      if (s.layer != "core") continue;
      core_us += MicrosBetween(s.start, s.end);
      core_q += static_cast<double>(s.keys.size());
      core_calls += 1.0;
    }
    m.Set("core.calls", core_calls, "count");
    m.Set("core.queries_per_call", core_calls > 0 ? core_q / core_calls : 0.0, "count");
    m.Set("core.join_us_per_subplan", core_q > 0 ? core_us / core_q : 0.0, "us");
    m.Set("core.busy_frac",
          tr.empty() ? 0.0 : core_us / MicrosBetween(tr.front().due, tr.back().answer),
          "share");
    m.Set("core.train_s", Median(train_s), "s");
    m.Set("optimizer.prewarm_us", prewarm_us / n, "us");
    m.Set("optimizer.dp_us", dp_us / n, "us");
    m.Set("optimizer.subplans_per_session", subplans / n, "count");
    const double lookups = static_cast<double>(memo2.lookups - memo1.lookups);
    m.Set("optimizer.memo_hit_frac",
          lookups > 0 ? static_cast<double>(memo2.hits - memo1.hits) / lookups : 0.0,
          "share");
    m.Set("optimizer.memo_entries", static_cast<double>(stack->memo->Size()), "count");
    (void)svc0;
    (void)memo0;
    return;
  }

  // ---- Session-rate ladder -> max_qps (sessions per second). ---------------
  const LadderResult lr = SearchLadder(rates, [&](size_t k) {
    const Planned step = plan_phase(rates[k], step_s);
    label_new();
    std::vector<double> sl_late;
    std::vector<Session> ss = run(step, nullptr, &sl_late);
    check_sessions(ss, false);
    std::vector<double> sl;
    std::vector<bool> sf;
    for (const Session& s : ss) {
      sl.push_back(MicrosBetween(s.due, s.answer));
      sf.push_back(s.failed);
    }
    const LadderStep js = JudgeStep(rates[k], sl, sf, 0, kSessionLimitUs);
    std::fprintf(stderr, "[plan-join] ladder %.0f/s: %zu sessions, %zu within -> %s\n",
                 rates[k], js.requests, js.within, js.pass ? "pass" : "fail");
    return js;
  });
  const double max_qps = lr.max_qps;
  if (lr.censored) WarnLadder("max_qps censored: the top ladder rate still passes");
  if (max_qps == 0.0) WarnLadder("the nominal rate fails the latency limit");

  MetricSet& m = ctx->metrics;
  m.Set("setup_s", Median(setup_s), "s");
  ReportNominalLatency(lat, late, ctx);
  m.Set("max_qps", max_qps, "1/s");
  ReportQError(qerr, ctx);
  m.Set("plan_cost_ratio", std::exp(log_ratio / std::max<double>(1.0, planned)), "x");
  {
    std::lock_guard<std::mutex> lock(lag_mu);
    m.Set("refresh_lag_s", memo_lag_s.empty() ? std::nan("") : Median(memo_lag_s), "s");
  }
  ReportFootprint(static_cast<double>(stack->service->CurrentSnapshot()->model->SizeBytes()),
                  ctx);
  std::fprintf(stderr,
               "[plan-join] nominal %.0f/s: %zu sessions, p50 %.0f us, p99 %.0f us, "
               "memo hit %.2f, cache hit %.2f, max_qps %.0f\n",
               kNominalSessions, nom.size(), nsum.p50_us, nsum.p99_us,
               static_cast<double>(memo1.hits - memo0.hits) /
                   std::max<double>(1.0, static_cast<double>(memo1.lookups - memo0.lookups)),
               static_cast<double>(svc1.cache_hits - svc0.cache_hits) /
                   std::max<double>(1.0, static_cast<double>(svc1.requests - svc0.requests)),
               max_qps);
}

}  // namespace perfbench
