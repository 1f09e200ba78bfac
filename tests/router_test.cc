// router/: HybridRouter routing + degradation + stats, per-class kNN, query
// classification, and the serve/ latency histogram.
//
// Coverage demanded by the degradation design: cold start routes everything
// to the primary bitwise; hot classes promote onto the kNN fast path and
// answer within tolerance of their training pairs; an SLO breach flips
// serving to the bounded floor immediately and recovery takes `recover_after`
// healthy probes (hysteresis — no flapping while the queue drains through
// the limit); concurrent clients vs. routing-table hot-swap is race-free
// (exercised under TSan via the unit-router label).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "estimators/histogram.h"
#include "estimators/oracle.h"
#include "online/feedback.h"
#include "router/knn.h"
#include "router/query_class.h"
#include "router/router.h"
#include "serve/latency.h"
#include "workload/generator.h"

namespace uae::router {
namespace {

struct Fixture {
  data::Table table;
  std::vector<int32_t> domains;
  std::shared_ptr<estimators::OracleEstimator> oracle;
  std::shared_ptr<const estimators::HistogramAviEstimator> histogram;
  std::shared_ptr<core::ServableModel> primary;
  std::vector<workload::LabeledQuery> labeled;

  Fixture() : table(data::TinyCorrelated(1000, 3)) {
    for (int c = 0; c < table.num_cols(); ++c) {
      domains.push_back(table.column(c).domain());
    }
    oracle = std::make_shared<estimators::OracleEstimator>(table);
    histogram = std::make_shared<estimators::HistogramAviEstimator>(table, 8);
    primary = oracle;
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 97);
    labeled = gen.GenerateLabeled(24, nullptr);
  }

  std::unique_ptr<HybridRouter> MakeRouter(const RouterConfig& config = {}) {
    return std::make_unique<HybridRouter>(primary, histogram, domains, config);
  }

  /// One structural template (col 0, one-sided range): every instance lands
  /// in the same query class, with literal-dependent features.
  workload::Query TemplateQuery(int32_t hi) const {
    workload::Query q(table.num_cols());
    workload::Predicate pred;
    pred.op = workload::Op::kLe;
    pred.code = hi;
    q.AddPredicate(pred, domains[0]);
    return q;
  }

  online::FeedbackEntry Feedback(const workload::Query& q) const {
    online::FeedbackEntry e;
    e.query = q;
    e.true_card = oracle->EstimateCard(q);
    e.estimated_card = e.true_card;  // Served by the oracle primary.
    e.generation = 1;
    return e;
  }
};

Fixture& Shared() {
  static Fixture* f = new Fixture();
  return *f;
}

// ---- Query classification --------------------------------------------------

TEST(QueryClassTest, FssGroupsByStructureNotLiterals) {
  Fixture& f = Shared();
  // Same structure, different literals: one class.
  EXPECT_EQ(QueryFss(f.TemplateQuery(1)), QueryFss(f.TemplateQuery(5)));
  // Different constrained column: a different class.
  workload::Query other(f.table.num_cols());
  workload::Predicate on_col1;
  on_col1.col = 1;
  on_col1.op = workload::Op::kLe;
  on_col1.code = 1;
  other.AddPredicate(on_col1, f.domains[1]);
  EXPECT_NE(QueryFss(f.TemplateQuery(1)), QueryFss(other));
  // Different constraint kind on the same column: a different class.
  workload::Query neq(f.table.num_cols());
  workload::Predicate not_equal;
  not_equal.op = workload::Op::kNeq;
  not_equal.code = 1;
  neq.AddPredicate(not_equal, f.domains[0]);
  EXPECT_NE(QueryFss(f.TemplateQuery(1)), QueryFss(neq));
}

TEST(QueryClassTest, FeaturesSeparateLiterals) {
  Fixture& f = Shared();
  const QueryClass a = ClassifyQuery(f.TemplateQuery(1), f.domains);
  const QueryClass b = ClassifyQuery(f.TemplateQuery(5), f.domains);
  ASSERT_EQ(a.features.size(), 2u);  // Two features per active column.
  EXPECT_EQ(a.fss, b.fss);
  EXPECT_NE(a.features, b.features);
  // The allowed-fraction feature is monotone in the range width.
  EXPECT_LT(a.features[1], b.features[1]);
}

// ---- kNN ring + snapshot ---------------------------------------------------

TEST(ClassKnnTest, RefusesBelowMinPointsThenInterpolates) {
  KnnConfig cfg;
  cfg.min_points = 3;
  cfg.k = 2;
  KnnRing ring(8);
  const float pts[] = {0.0f, 0.5f, 1.0f, 0.25f};
  const double logs[] = {0.0, 5.0, 10.0, 2.5};
  for (int i = 0; i < 2; ++i) {
    ring.Add(std::span<const float>(&pts[i], 1), logs[i]);
  }
  EXPECT_FALSE(ring.Freeze()
                   .PredictLogCard(std::span<const float>(&pts[0], 1), cfg)
                   .has_value());
  for (int i = 2; i < 4; ++i) {
    ring.Add(std::span<const float>(&pts[i], 1), logs[i]);
  }
  const ClassKnn knn = ring.Freeze();
  // Exact repeat: the zero-distance neighbour dominates the weighting.
  const float probe = 0.5f;
  auto at_half = knn.PredictLogCard(std::span<const float>(&probe, 1), cfg);
  ASSERT_TRUE(at_half.has_value());
  EXPECT_NEAR(*at_half, 5.0, 0.05);
  // Dimension mismatch: refuse rather than extrapolate garbage.
  const float two[] = {0.5f, 0.5f};
  EXPECT_FALSE(knn.PredictLogCard(std::span<const float>(two, 2), cfg)
                   .has_value());
}

TEST(ClassKnnTest, RingOverwritesOldestAtCapacity) {
  KnnRing ring(2);
  const float a = 0.0f, b = 1.0f, c = 2.0f;
  ring.Add(std::span<const float>(&a, 1), 1.0);
  ring.Add(std::span<const float>(&b, 1), 2.0);
  ring.Add(std::span<const float>(&c, 1), 3.0);  // Evicts the a-point.
  EXPECT_EQ(ring.size(), 2u);
  KnnConfig cfg;
  cfg.min_points = 1;
  cfg.k = 1;
  auto at_a = ring.Freeze().PredictLogCard(std::span<const float>(&a, 1), cfg);
  ASSERT_TRUE(at_a.has_value());
  EXPECT_NEAR(*at_a, 2.0, 1e-6);  // Nearest survivor is the b-point.
}

// ---- Latency histogram -----------------------------------------------------

TEST(LatencyHistogramTest, BucketRoundTripAndBoundedRelativeError) {
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 100ull, 4096ull, 1'000'000ull}) {
    const size_t bucket = serve::LatencyHistogram::BucketFor(v);
    const uint64_t rep = serve::LatencyHistogram::BucketValue(bucket);
    EXPECT_EQ(serve::LatencyHistogram::BucketFor(rep), bucket) << v;
    // Sub-bucketed octaves bound the representative's relative error.
    if (v >= 8) {
      EXPECT_LE(std::abs(static_cast<double>(rep) - static_cast<double>(v)),
                static_cast<double>(v) * 0.125 + 1.0)
          << v;
    } else {
      EXPECT_EQ(rep, v);
    }
  }
}

TEST(LatencyHistogramTest, SnapshotQuantilesTrackTheSample) {
  serve::LatencyHistogram hist;
  EXPECT_EQ(hist.Snapshot().count, 0u);
  // 100 observations: 1..99 us plus one 10ms outlier.
  for (uint64_t v = 1; v <= 99; ++v) hist.Record(v);
  hist.Record(10'000);
  const serve::LatencySnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.max_us, 10'000u);
  EXPECT_NEAR(snap.p50_us, 50.0, 50.0 * 0.125 + 1.0);
  EXPECT_NEAR(snap.p95_us, 95.0, 95.0 * 0.125 + 1.0);
  EXPECT_GE(snap.p99_us, snap.p95_us);
  EXPECT_GT(snap.mean_us, 0.0);
}

// ---- HybridRouter ----------------------------------------------------------

TEST(RouterTest, ColdStartRoutesEverythingToPrimaryBitwise) {
  Fixture& f = Shared();
  auto router = f.MakeRouter();
  EXPECT_EQ(router->RoutingGeneration(), 1u);
  std::vector<workload::Query> queries;
  for (const auto& lq : f.labeled) queries.push_back(lq.query);
  const std::vector<double> batched = router->EstimateCards(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(router->RouteFor(queries[i]), Backend::kPrimary);
    const double expected = f.primary->EstimateCard(queries[i]);
    EXPECT_EQ(router->EstimateCard(queries[i]), expected);
    EXPECT_EQ(batched[i], expected);
  }
  const RouterStatsSnapshot stats = router->RouterStats();
  EXPECT_EQ(stats.requests, 2 * queries.size());
  EXPECT_EQ(stats.backends[static_cast<size_t>(Backend::kPrimary)].requests,
            2 * queries.size());
  EXPECT_EQ(stats.backends[static_cast<size_t>(Backend::kKnn)].requests, 0u);
  EXPECT_EQ(stats.backends[static_cast<size_t>(Backend::kFloor)].requests, 0u);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.classes, 0u);
}

TEST(RouterTest, FeedbackPromotesHotClassToKnnWithinTolerance) {
  Fixture& f = Shared();
  auto router = f.MakeRouter();

  std::vector<online::FeedbackEntry> batch;
  const int32_t step = std::max<int32_t>(1, f.domains[0] / 16);
  for (int32_t hi = 0; hi + 1 < f.domains[0]; hi += step) {
    batch.push_back(f.Feedback(f.TemplateQuery(hi)));
  }
  ASSERT_GE(batch.size(), 4u);

  // Round 1 seeds the ring; later rounds are exact repeats, so the shadow
  // kNN q-error collapses toward 1 and the class earns its promotion
  // (promote_after consecutive eligible updates).
  const uint64_t gen_before = router->RoutingGeneration();
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(router->ObserveFeedback(batch), batch.size());
  }
  EXPECT_GT(router->RoutingGeneration(), gen_before);  // Hot-swapped tables.
  EXPECT_EQ(router->RouteFor(f.TemplateQuery(step)), Backend::kKnn);

  // Served estimates on training pairs come from the kNN fast path, within
  // tolerance of the observed truths (exact repeats dominate the weighting).
  for (const auto& e : batch) {
    const double est = router->EstimateCard(e.query);
    const double truth = std::max(1.0, e.true_card);
    const double q = std::max(est, 1.0) / truth;
    EXPECT_LE(std::max(q, 1.0 / q), 2.0) << "truth=" << e.true_card;
  }
  const RouterStatsSnapshot stats = router->RouterStats();
  EXPECT_EQ(stats.backends[static_cast<size_t>(Backend::kKnn)].requests,
            batch.size());
  EXPECT_GE(stats.knn_classes, 1u);
  EXPECT_EQ(stats.feedback_observed, 4 * batch.size());
  // An unseen class still routes to the primary.
  EXPECT_EQ(router->RouteFor(f.labeled[0].query), Backend::kPrimary);
}

/// An alt backend whose every answer is NaN.
class NanServable : public core::ServableModel {
 public:
  explicit NanServable(size_t rows) : rows_(rows) {}
  double EstimateCard(const workload::Query&) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  size_t SizeBytes() const override { return 0; }
  size_t num_rows() const override { return rows_; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<NanServable>(rows_);
  }

 private:
  size_t rows_;
};

TEST(RouterTest, NanAltBackendIsNeverPromotedAndStatsStayFinite) {
  Fixture& f = Shared();
  RouterConfig config;
  config.knn.min_points = 1u << 20;  // Keep the kNN path out of this contest.
  auto router = f.MakeRouter(config);
  router->SetAltBackend(std::make_shared<NanServable>(f.table.num_rows()));

  // The primary served 100 rows where the truth is 1, so an alt scored as
  // a perfect answer would win the class within promote_after rounds.
  std::vector<online::FeedbackEntry> batch;
  for (int32_t hi = 0; hi < 8; ++hi) {
    online::FeedbackEntry e = f.Feedback(f.TemplateQuery(hi));
    e.true_card = 1.0;
    e.estimated_card = 100.0;
    batch.push_back(e);
  }
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(router->ObserveFeedback(batch), batch.size());
  }
  EXPECT_NE(router->RouteFor(f.TemplateQuery(3)), Backend::kAlt);
  const RouterStatsSnapshot stats = router->RouterStats();
  EXPECT_EQ(stats.alt_classes, 0u);
  for (size_t b = 0; b < kNumBackends; ++b) {
    const util::ErrorSummary& q = stats.backends[b].qerror;
    for (double v : {q.mean, q.median, q.p95, q.p99, q.max}) {
      EXPECT_FALSE(std::isnan(v)) << BackendName(static_cast<Backend>(b));
    }
  }
  // The NaN answers are scored as the worst error, not dropped.
  const util::ErrorSummary& alt =
      stats.backends[static_cast<size_t>(Backend::kAlt)].qerror;
  EXPECT_EQ(alt.count, 4 * batch.size());
  EXPECT_EQ(alt.median, std::numeric_limits<double>::infinity());
}

TEST(RouterTest, KnnOutranksAltWhenBothQualify) {
  Fixture& f = Shared();
  // The primary was 100x off on every entry and the alt is exact, so the alt
  // qualifies; the template repeats, so the kNN qualifies too.
  std::vector<online::FeedbackEntry> batch;
  const int32_t step = std::max<int32_t>(1, f.domains[0] / 16);
  for (int32_t hi = 0; hi + 1 < f.domains[0]; hi += step) {
    online::FeedbackEntry e = f.Feedback(f.TemplateQuery(hi));
    e.estimated_card = 100.0 * std::max(1.0, e.true_card);
    batch.push_back(e);
  }
  constexpr int kRounds = 4;
  const auto route_after_feedback = [&](const RouterConfig& config) {
    auto router = f.MakeRouter(config);
    router->SetAltBackend(f.oracle);
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(router->ObserveFeedback(batch), batch.size());
    }
    return std::make_pair(router->RouteFor(f.TemplateQuery(step)),
                          router->RouterStats());
  };

  const auto [both, both_stats] = route_after_feedback({});
  EXPECT_EQ(both, Backend::kKnn);
  EXPECT_EQ(both_stats.knn_classes, 1u);
  EXPECT_EQ(both_stats.alt_classes, 0u);

  // Without enough points for the kNN, the same class goes to the alt.
  RouterConfig no_knn;
  no_knn.knn.min_points = kRounds * batch.size() + 1;
  const auto [alt_only, alt_stats] = route_after_feedback(no_knn);
  EXPECT_EQ(alt_only, Backend::kAlt);
  EXPECT_EQ(alt_stats.knn_classes, 0u);
  EXPECT_EQ(alt_stats.alt_classes, 1u);
}

TEST(RouterTest, JoinAndMismatchedFeedbackIsSkipped) {
  Fixture& f = Shared();
  auto router = f.MakeRouter();
  online::FeedbackEntry join = f.Feedback(f.TemplateQuery(1));
  join.join_mask = 0b11;  // Join sub-plan feedback: not routable here.
  EXPECT_EQ(router->ObserveFeedback(std::vector<online::FeedbackEntry>{join}),
            0u);
  EXPECT_EQ(router->RouterStats().feedback_observed, 0u);
}

TEST(RouterTest, SloBreachFlipsToFloorImmediatelyAndRecoversWithHysteresis) {
  Fixture& f = Shared();
  RouterConfig config;
  config.latency_slo_us = 1000;
  config.recover_after = 3;
  auto router = f.MakeRouter(config);
  std::atomic<uint64_t> wait_us{0};
  router->SetLoadProbe(
      [&wait_us] { return RouterLoad{0, wait_us.load()}; });

  const workload::Query query = f.labeled[0].query;
  const double primary_est = f.primary->EstimateCard(query);
  const double floor_est = f.histogram->EstimateCard(query);

  // Healthy: primary serves.
  EXPECT_EQ(router->EstimateCard(query), primary_est);
  EXPECT_FALSE(router->RouterStats().degraded);

  // Breach: the very next request degrades to the floor (entry is immediate).
  wait_us.store(5000);
  EXPECT_EQ(router->EstimateCard(query), floor_est);
  RouterStatsSnapshot stats = router->RouterStats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.degrade_transitions, 1u);
  EXPECT_EQ(stats.degraded_requests, 1u);

  // Back under the SLO: the floor keeps serving for recover_after - 1 more
  // probes (hysteresis — a queue draining through the limit must not flap).
  wait_us.store(0);
  EXPECT_EQ(router->EstimateCard(query), floor_est);
  EXPECT_EQ(router->EstimateCard(query), floor_est);
  // Third healthy probe completes the streak: recovered.
  EXPECT_EQ(router->EstimateCard(query), primary_est);
  stats = router->RouterStats();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.degrade_transitions, 2u);
  EXPECT_EQ(stats.degraded_requests, 3u);
  EXPECT_EQ(stats.backends[static_cast<size_t>(Backend::kFloor)].requests, 3u);

  // A mid-recovery breach resets the streak instead of flapping out.
  wait_us.store(5000);
  EXPECT_EQ(router->EstimateCard(query), floor_est);
  wait_us.store(0);
  EXPECT_EQ(router->EstimateCard(query), floor_est);
  wait_us.store(5000);  // Streak broken before recover_after.
  EXPECT_EQ(router->EstimateCard(query), floor_est);
  EXPECT_EQ(router->RouterStats().degrade_transitions, 3u);  // Still degraded.
}

TEST(RouterTest, QueueDepthTriggerAlsoDegrades) {
  Fixture& f = Shared();
  RouterConfig config;
  config.queue_depth_limit = 8;
  config.recover_after = 1;
  auto router = f.MakeRouter(config);
  std::atomic<size_t> depth{0};
  router->SetLoadProbe([&depth] { return RouterLoad{depth.load(), 0}; });
  const workload::Query query = f.labeled[1].query;
  EXPECT_EQ(router->EstimateCard(query), f.primary->EstimateCard(query));
  depth.store(9);
  EXPECT_EQ(router->EstimateCard(query), f.histogram->EstimateCard(query));
  depth.store(8);  // At (not above) the limit: healthy; recover_after=1.
  EXPECT_EQ(router->EstimateCard(query), f.primary->EstimateCard(query));
}

TEST(RouterTest, CloneStartsFromCurrentTableWithFreshStats) {
  Fixture& f = Shared();
  auto router = f.MakeRouter();
  std::vector<online::FeedbackEntry> batch;
  const int32_t step = std::max<int32_t>(1, f.domains[0] / 16);
  for (int32_t hi = 0; hi + 1 < f.domains[0]; hi += step) {
    batch.push_back(f.Feedback(f.TemplateQuery(hi)));
  }
  for (int round = 0; round < 4; ++round) (void)router->ObserveFeedback(batch);
  ASSERT_EQ(router->RouteFor(f.TemplateQuery(step)), Backend::kKnn);

  auto clone = std::static_pointer_cast<core::ServableModel>(
      router->CloneServable());
  auto* cloned = dynamic_cast<HybridRouter*>(clone.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_EQ(cloned->RoutingGeneration(), 1u);  // Re-published as its gen 1.
  EXPECT_EQ(cloned->RouteFor(f.TemplateQuery(step)), Backend::kKnn);
  EXPECT_EQ(cloned->RouterStats().requests, 0u);  // Stats start fresh.
  EXPECT_EQ(cloned->EstimateCard(f.TemplateQuery(step)),
            router->EstimateCard(f.TemplateQuery(step)));
}

TEST(RouterTest, ConcurrentClientsSurviveRoutingHotSwap) {
  Fixture& f = Shared();
  auto router = f.MakeRouter();
  std::vector<online::FeedbackEntry> batch;
  const int32_t step = std::max<int32_t>(1, f.domains[0] / 16);
  for (int32_t hi = 0; hi + 1 < f.domains[0]; hi += step) {
    batch.push_back(f.Feedback(f.TemplateQuery(hi)));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 60;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Mix template queries (whose class flips to kNN mid-run) with
        // generator queries (primary throughout).
        const workload::Query q =
            (i % 2 == 0)
                ? f.TemplateQuery(static_cast<int32_t>(
                      (static_cast<size_t>(t + i) * step) %
                      static_cast<size_t>(f.domains[0] - 1)))
                : f.labeled[static_cast<size_t>(t + i) % f.labeled.size()].query;
        const double est = router->EstimateCard(q);
        if (!std::isfinite(est) || est < 0.0) bad.fetch_add(1);
      }
    });
  }
  // Learner thread hot-swaps routing tables under the clients' feet.
  std::thread learner([&] {
    for (int round = 0; round < 8; ++round) {
      (void)router->ObserveFeedback(batch);
      (void)router->RouterStats();
    }
  });
  for (auto& c : clients) c.join();
  learner.join();
  EXPECT_EQ(bad.load(), 0);
  const RouterStatsSnapshot stats = router->RouterStats();
  // Every request is attributed to exactly one backend.
  uint64_t sum = 0;
  for (size_t b = 0; b < kNumBackends; ++b) {
    sum += stats.backends[b].requests;
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.requests, sum);
  EXPECT_EQ(stats.feedback_observed, 8 * batch.size());
}

TEST(RouterTest, UpdateFromCollectorDrainsFeedback) {
  Fixture& f = Shared();
  auto router = f.MakeRouter();
  online::FeedbackCollector collector;
  const int32_t step = std::max<int32_t>(1, f.domains[0] / 16);
  size_t added = 0;
  for (int round = 0; round < 4; ++round) {
    for (int32_t hi = 0; hi + 1 < f.domains[0]; hi += step) {
      collector.Add(f.Feedback(f.TemplateQuery(hi)));
      ++added;
    }
  }
  EXPECT_EQ(router->UpdateFromCollector(&collector), added);
  EXPECT_EQ(collector.Size(), 0u);  // Drained.
  // One big drain counts as ONE routing update round per class: promotion
  // still needs promote_after rounds, so a second drain seals it.
  for (int32_t hi = 0; hi + 1 < f.domains[0]; hi += step) {
    collector.Add(f.Feedback(f.TemplateQuery(hi)));
  }
  (void)router->UpdateFromCollector(&collector);
  EXPECT_EQ(router->RouteFor(f.TemplateQuery(step)), Backend::kKnn);
}

}  // namespace
}  // namespace uae::router
