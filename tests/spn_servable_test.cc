// estimators::SpnServable: three bugfix regressions (overflow-dictionary
// leaf sizing, deterministic product-split child order, col_weights length
// validation) plus the SPN's serving checks — clone bitwise-independence,
// fine-tune determinism across thread counts, fine-tunes that ignore rows
// appended to the table after construction, the adaptation guard refusing a
// worse fine-tuned SPN, the router promoting the SPN for a query class where
// its shadow q-error wins, hot-swap under concurrent clients (run under TSan
// via the unit-spn label), and per-shard SPN instantiation through
// shard::ShardedServable.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/synthetic.h"
#include "data/table.h"
#include "estimators/histogram.h"
#include "estimators/spn_servable.h"
#include "online/controller.h"
#include "online/feedback.h"
#include "router/router.h"
#include "serve/service.h"
#include "shard/sharded_servable.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae {
namespace {

using estimators::SpnServable;
using estimators::SpnServableConfig;

/// Labeled band workload over `table` (truths executed against the table).
workload::Workload BandWorkload(const data::Table& table, int count,
                                uint64_t seed) {
  workload::GeneratorConfig gc;
  gc.min_filters = 2;
  gc.max_filters = 2;
  gc.center_min = 0.6;
  gc.center_max = 0.9;
  gc.target_volume = 0.1;
  workload::QueryGenerator gen(table, gc, seed);
  return gen.GenerateLabeled(count, nullptr);
}

double MedianQError(const core::ServableModel& model,
                    const workload::Workload& test) {
  std::vector<double> errors = workload::EvaluateQErrorsBatched(
      test, [&](std::span<const workload::Query> qs) {
        return model.EstimateCards(qs);
      });
  return util::Quantile(std::move(errors), 0.5);
}

// ---- Bugfix regressions -----------------------------------------------------

// MakeLeaf used to size `hist` by column.domain() while indexing with
// code_at(r): rows appended through the PR 9 streaming path carry
// overflow-dictionary codes >= domain(), so building an SPN on a table with
// appended unseen values wrote past the histogram (ASan-visible pre-fix).
TEST(SpnBugfixTest, OverflowDictionaryCodesStayInBounds) {
  util::Rng rng(41);
  const size_t n = 1500;
  std::vector<int32_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(rng.UniformInt(0, 7));
    b[i] = static_cast<int32_t>(rng.UniformInt(0, 7));
  }
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("a", std::move(a), 8));
  cols.push_back(data::Column::FromCodes("b", std::move(b), 8));
  data::Table t("overflow", std::move(cols));
  const int32_t frozen = t.column(0).domain();
  ASSERT_EQ(frozen, 8);

  // Append rows whose column-0 value was never seen at freeze time: they get
  // stable overflow codes at and above domain().
  std::vector<int32_t> codes;
  for (int i = 0; i < 40; ++i) {
    std::vector<data::Value> row = {data::Value(int64_t{100 + i % 3}),
                                    data::Value(int64_t{i % 8})};
    t.EncodeAppendRow(row, &codes);
    ASSERT_TRUE(t.AppendDeltaRowCodes(codes).ok());
  }
  ASSERT_GT(t.column(0).total_domain(), frozen);

  SpnServableConfig sc;
  sc.min_instances = 128;
  SpnServable spn(t, sc);  // Pre-fix: heap-buffer-overflow here.

  // The overflow rows are real probability mass: an equality query on the
  // first overflow code must see its appended rows.
  workload::Query q(t.num_cols());
  workload::Predicate pred;
  pred.col = 0;
  pred.op = workload::Op::kEq;
  pred.code = frozen;  // First overflow code (value 100).
  q.AddPredicate(pred, t.column(0).total_domain());
  const double truth = static_cast<double>(workload::ExecuteCount(t, q));
  ASSERT_GT(truth, 0.0);
  EXPECT_GT(spn.EstimateCard(q), 0.0);
  EXPECT_LT(workload::QError(spn.EstimateCard(q), truth), 4.0);
}

// Product-split children used to be emitted in std::unordered_map iteration
// order — stdlib-hash-dependent, violating docs/DETERMINISM.md. The fix pins
// the canonical order: children ascending by their group's smallest member
// column. With independent columns every group is a singleton, so the
// preorder leaf columns must be exactly 0..k-1 (pre-fix, libstdc++'s
// iteration order reverses them).
TEST(SpnBugfixTest, ProductChildrenOrderedBySmallestMemberColumn) {
  util::Rng rng(43);
  const size_t n = 4000;
  const int k = 5;
  std::vector<std::vector<int32_t>> codes(k, std::vector<int32_t>(n));
  for (int c = 0; c < k; ++c) {
    for (size_t i = 0; i < n; ++i) {
      codes[static_cast<size_t>(c)][i] =
          static_cast<int32_t>(rng.UniformInt(0, 9));
    }
  }
  std::vector<data::Column> cols;
  for (int c = 0; c < k; ++c) {
    cols.push_back(data::Column::FromCodes("c" + std::to_string(c),
                                           std::move(codes[static_cast<size_t>(c)]),
                                           10));
  }
  data::Table t("indep5", std::move(cols));
  SpnServableConfig sc;
  SpnServable spn(t, sc);
  ASSERT_GE(spn.num_product_nodes(), 1);

  const std::vector<int> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(spn.PreorderLeafColumns(), expected);

  // Build-twice bitwise: same (table, config) => identical structure and
  // parameters, pinned at the bit level.
  SpnServable again(t, sc);
  EXPECT_EQ(spn.StructureSignature(), again.StructureSignature());
}

// Evaluate's weighted-leaf path used to read it->second[v] for every
// v < hist.size() without checking the caller's vector length — a silent
// out-of-bounds read for a short col_weights vector. Now it CHECK-fails.
TEST(SpnBugfixTest, ShortColWeightsVectorIsRejected) {
  std::vector<int32_t> f;
  for (int i = 0; i < 1000; ++i) f.push_back(i % 2);
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromCodes("fanout", std::move(f), 2));
  data::Table t("w", std::move(cols));
  SpnServableConfig sc;
  SpnServable spn(t, sc);
  workload::Query q(1);
  std::unordered_map<int, std::vector<float>> short_weights;
  short_weights[0] = {1.f};  // Leaf histogram has 2 bins.
  EXPECT_DEATH_IF_SUPPORTED(
      spn.EstimateSelectivityWeighted(q, short_weights), "col_weights");

  // A full-length vector still evaluates the expectation.
  std::unordered_map<int, std::vector<float>> ok_weights;
  ok_weights[0] = {1.f, 0.5f};
  EXPECT_NEAR(spn.EstimateSelectivityWeighted(q, ok_weights), 0.75, 1e-6);
}

// ---- ServableModel conformance ----------------------------------------------

/// Two strongly coupled columns (b tracks a up to small noise): the
/// independence assumption is off by roughly the band width on conjunctive
/// range queries, so a product-only SPN has real accuracy headroom for
/// query-driven fine-tuning.
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

struct SpnScenario {
  data::Table table;
  workload::Workload train;
  workload::Workload test;

  SpnScenario() : table(MakeCorrelatedPair(8000, 21)) {
    train = BandWorkload(table, 96, 101);
    test = BandWorkload(table, 48, 707);
  }

  /// A deliberately coarse SPN: an impossible correlation threshold forces a
  /// pure product (independence) factorization, so there is real accuracy
  /// headroom for query-driven fine-tuning on the correlated band.
  SpnServableConfig StaleConfig() const {
    SpnServableConfig config;
    config.corr_threshold = 2.0;
    config.min_instances = 256;
    return config;
  }

  /// A fine-grained SPN (conditioning sum splits): accurate out of the box.
  SpnServableConfig AccurateConfig() const {
    SpnServableConfig config;
    config.corr_threshold = 0.05;
    config.min_instances = 256;
    return config;
  }
};

SpnScenario& Shared() {
  static SpnScenario* s = new SpnScenario();
  return *s;
}

std::string Signature(const core::ServableModel& model) {
  return dynamic_cast<const SpnServable&>(model).StructureSignature();
}

TEST(SpnServableTest, FineTuneImprovesHeldOutAccuracy) {
  SpnScenario& s = Shared();
  auto stale = std::make_shared<SpnServable>(s.table, s.StaleConfig());
  const double stale_median = MedianQError(*stale, s.test);

  auto tuned = stale->CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 512;
  EXPECT_GT(tuned->FineTune(s.train, spec), 0u);
  const double tuned_median = MedianQError(*tuned, s.test);
  EXPECT_LT(tuned_median, stale_median)
      << "stale " << stale_median << " vs tuned " << tuned_median;
}

TEST(SpnServableTest, CloneIsBitwiseIndependent) {
  SpnScenario& s = Shared();
  auto original = std::make_shared<SpnServable>(s.table, s.StaleConfig());
  const std::string before = Signature(*original);

  auto clone = original->CloneServable();
  EXPECT_EQ(Signature(*clone), before);  // Bit-identical parameters.

  // Fine-tuning the clone must not move a single bit of the original.
  core::FineTuneSpec spec;
  spec.query_steps = 256;
  ASSERT_GT(clone->FineTune(s.train, spec), 0u);
  EXPECT_NE(Signature(*clone), before);  // The clone really trained...
  EXPECT_EQ(Signature(*original), before);  // ...and the original did not.

  // And the original's estimates are bitwise what they were.
  for (size_t i = 0; i < 8; ++i) {
    const double card = original->EstimateCard(s.test[i].query);
    EXPECT_DOUBLE_EQ(
        card, SpnServable(s.table, s.StaleConfig()).EstimateCard(s.test[i].query));
  }
}

TEST(SpnServableTest, FineTuneIsDeterministicAcrossThreadCounts) {
  SpnScenario& s = Shared();
  auto base = std::make_shared<SpnServable>(s.table, s.StaleConfig());
  core::FineTuneSpec spec;
  spec.query_steps = 200;

  // Inline on this thread.
  auto inline_clone = base->CloneServable();
  const size_t used_inline = inline_clone->FineTune(s.train, spec);

  // Inside a pool worker (the adaptation controller's poll thread shape) and
  // concurrently with unrelated pool traffic.
  auto worker_clone = base->CloneServable();
  size_t used_worker = 0;
  std::thread worker([&] { used_worker = worker_clone->FineTune(s.train, spec); });
  worker.join();

  EXPECT_EQ(used_inline, used_worker);
  EXPECT_EQ(Signature(*inline_clone), Signature(*worker_clone));

  // Batched estimation is bitwise the sequential path at any batch split.
  std::vector<workload::Query> queries;
  for (const auto& lq : s.test) queries.push_back(lq.query);
  const std::vector<double> batched = inline_clone->EstimateCards(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], inline_clone->EstimateCard(queries[i]));
  }
}

// Fine-tune labels are divided by the construction-time row count that
// estimates scale by. They used to be divided by the table's live count, so
// a clone fine-tuned after rows were appended learned different parameters
// than one fine-tuned before, from the same source and the same feedback.
TEST(SpnServableTest, FineTuneIgnoresRowsAppendedAfterConstruction) {
  data::Table table = MakeCorrelatedPair(4000, 23);
  const workload::Workload train = BandWorkload(table, 32, 55);
  SpnServableConfig config;
  config.corr_threshold = 2.0;
  config.min_instances = 256;
  const SpnServable source(table, config);
  auto first = source.CloneServable();
  auto second = source.CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 128;
  const size_t used_first = first->FineTune(train, spec);
  ASSERT_GT(used_first, 0u);

  std::vector<int32_t> codes(2);
  for (int i = 0; i < 500; ++i) {
    codes[0] = i % 64;
    codes[1] = (i * 7) % 64;
    ASSERT_TRUE(table.AppendDeltaRowCodes(codes).ok());
  }
  ASSERT_EQ(table.num_rows(), 4500u);
  EXPECT_EQ(second->FineTune(train, spec), used_first);

  EXPECT_EQ(Signature(*second), Signature(*first));
  EXPECT_EQ(second->num_rows(), 4000u);
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(second->EstimateCard(train[i].query)),
              std::bit_cast<uint64_t>(first->EstimateCard(train[i].query)))
        << "query " << i;
  }
}

TEST(SpnServableTest, GuardRefusesWorseFineTunedCandidate) {
  SpnScenario& s = Shared();
  auto incumbent = std::make_shared<SpnServable>(s.table, s.AccurateConfig());

  // Corrupt the labels: every query claims the full table matches. The
  // fine-tune dutifully inflates the candidate toward nonsense.
  workload::Workload corrupted = s.train;
  for (auto& lq : corrupted) {
    lq.card = static_cast<double>(s.table.num_rows());
    lq.selectivity = 1.0;
  }
  auto candidate = incumbent->CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 512;
  ASSERT_GT(candidate->FineTune(corrupted, spec), 0u);

  const online::GuardVerdict verdict =
      online::EvaluateCandidate(*incumbent, *candidate, s.test,
                                /*guard_max_ratio=*/1.05);
  EXPECT_FALSE(verdict.accept);
  EXPECT_GT(verdict.candidate_median, verdict.incumbent_median);

  // Sanity: a genuinely fine-tuned candidate from a stale incumbent passes.
  auto stale = std::make_shared<SpnServable>(s.table, s.StaleConfig());
  auto good = stale->CloneServable();
  ASSERT_GT(good->FineTune(s.train, spec), 0u);
  EXPECT_TRUE(online::EvaluateCandidate(*stale, *good, s.test, 1.05).accept);
}

TEST(SpnServableTest, RouterPromotesSpnWhereItsShadowQErrorWins) {
  SpnScenario& s = Shared();
  std::vector<int32_t> domains;
  for (int c = 0; c < s.table.num_cols(); ++c) {
    domains.push_back(s.table.column(c).domain());
  }
  // Primary: an attribute-value-independence histogram — systematically wrong
  // on the correlated conjunctions below. Alt: the fine-grained SPN.
  auto histogram =
      std::make_shared<estimators::HistogramAviEstimator>(s.table, 8);
  std::shared_ptr<core::ServableModel> primary = histogram;
  auto spn = std::make_shared<SpnServable>(s.table, s.AccurateConfig());

  router::RouterConfig rc;
  rc.knn.min_points = 1u << 20;  // Keep the kNN path out of this contest.
  auto router = std::make_unique<router::HybridRouter>(primary, histogram,
                                                       domains, rc);
  router->SetAltBackend(spn);

  // One structural class: a two-sided conjunction on the correlated columns,
  // literals varying per entry (the alt must win on rolling shadow q-error,
  // not on memorized repeats).
  auto template_query = [&](int32_t lo) {
    workload::Query q(s.table.num_cols());
    workload::Predicate p0;
    p0.col = 0;
    p0.op = workload::Op::kGe;
    p0.code = lo;
    q.AddPredicate(p0, domains[0]);
    workload::Predicate p1;
    p1.col = 1;
    p1.op = workload::Op::kGe;
    p1.code = static_cast<int32_t>(domains[1] / 2);
    q.AddPredicate(p1, domains[1]);
    return q;
  };

  for (int round = 0; round < 4; ++round) {
    std::vector<online::FeedbackEntry> batch;
    for (int32_t lo = domains[0] / 2; lo < domains[0] - 1; ++lo) {
      online::FeedbackEntry e;
      e.query = template_query(lo);
      e.true_card =
          static_cast<double>(workload::ExecuteCount(s.table, e.query));
      e.estimated_card = primary->EstimateCard(e.query);  // Served by primary.
      e.generation = 1;
      batch.push_back(std::move(e));
    }
    ASSERT_EQ(router->ObserveFeedback(batch), batch.size());
  }

  const workload::Query probe = template_query(domains[0] / 2);
  ASSERT_EQ(router->RouteFor(probe), router::Backend::kAlt);
  EXPECT_GE(router->RouterStats().alt_classes, 1u);
  // Alt-routed estimates are bitwise the SPN's own answers, single and
  // batched.
  EXPECT_DOUBLE_EQ(router->EstimateCard(probe), spn->EstimateCard(probe));
  const std::vector<workload::Query> batch{probe, template_query(domains[0] / 2 + 1)};
  const std::vector<double> routed = router->EstimateCards(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(routed[i], spn->EstimateCard(batch[i]));
  }
  // An unseen class (different filter structure) still routes to the primary.
  workload::Query unseen(s.table.num_cols());
  workload::Predicate up;
  up.col = 0;
  up.op = workload::Op::kLe;
  up.code = domains[0] / 2;
  unseen.AddPredicate(up, domains[0]);
  EXPECT_EQ(router->RouteFor(unseen), router::Backend::kPrimary);
}

TEST(SpnServableTest, HotSwapUnderConcurrentClients) {
  SpnScenario& s = Shared();
  auto stale = std::make_shared<SpnServable>(s.table, s.StaleConfig());
  auto tuned_model = stale->CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 256;
  ASSERT_GT(tuned_model->FineTune(s.train, spec), 0u);
  std::shared_ptr<const core::ServableModel> tuned = std::move(tuned_model);

  // Ground truth per generation, precomputed single-threaded.
  std::vector<workload::Query> queries;
  for (const auto& lq : s.test) queries.push_back(lq.query);
  std::vector<double> expect_g1, expect_g2;
  for (const auto& q : queries) {
    expect_g1.push_back(stale->EstimateCard(q));
    expect_g2.push_back(tuned->EstimateCard(q));
  }

  serve::EstimationService service(stale);
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int rep = 0; rep < 20; ++rep) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const serve::ServeResult res = service.Estimate(queries[i]);
          const double want =
              res.generation == 1 ? expect_g1[i] : expect_g2[i];
          if (res.card != want) failed.store(true);
        }
        if (c == 0 && rep == 5) service.PublishSnapshot(tuned);
      }
    });
  }
  for (auto& t : clients) t.join();
  // Every response was bitwise attributable to the snapshot that served it.
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service.CurrentGeneration(), 2u);
}

TEST(SpnServableTest, AdaptationControllerRoundTrip) {
  SpnScenario& s = Shared();
  auto stale = std::make_shared<SpnServable>(s.table, s.StaleConfig());
  const double stale_median = MedianQError(*stale, s.test);

  serve::EstimationService service(stale);
  online::FeedbackCollector collector({.capacity = 1024});
  online::DriftMonitor monitor(
      {.window = 512, .min_samples = 48, .median_threshold = 1.2});
  online::AdaptationConfig cfg;
  cfg.finetune_steps = 512;
  cfg.min_feedback = 48;
  cfg.holdout_fraction = 0.25;
  cfg.split_seed = 5;
  online::AdaptationController controller(&service, &collector, &monitor, cfg);

  // Serve the band traffic the coarse SPN is systematically wrong on.
  for (const auto& lq : s.train) {
    const serve::ServeResult res = service.Estimate(lq.query);
    controller.OnFeedback(lq.query, res, static_cast<double>(lq.card));
  }
  ASSERT_TRUE(monitor.Check().fired);

  // Closed loop: clone -> FineTune -> guard -> hot-swap, all through the
  // ServableModel interface.
  const online::AdaptationResult result = controller.AdaptIfDrifted();
  ASSERT_EQ(result.outcome, online::AdaptOutcome::kPublished);
  EXPECT_EQ(service.CurrentGeneration(), 2u);
  EXPECT_LT(result.candidate_median, result.incumbent_median);

  const auto snap = service.CurrentSnapshot();
  const double adapted_median = MedianQError(*snap->model, s.test);
  EXPECT_LT(adapted_median, stale_median)
      << "stale " << stale_median << " vs adapted " << adapted_median;
  // The incumbent object itself was never mutated (clone-based adaptation).
  EXPECT_DOUBLE_EQ(MedianQError(*stale, s.test), stale_median);
}

// ---- Per-shard SPN deployment ----------------------------------------------

TEST(SpnShardingTest, PerShardSpnsPruneRouteAndStayIsolated) {
  SpnScenario& s = Shared();
  shard::ShardedServableConfig config;
  config.partition.num_shards = 4;
  config.partition.partition_col = 0;
  config.base_seed = 31;
  // Product-only shard SPNs: the two-predicate pinned feedback below is then
  // guaranteed to carry a truth/estimate gap, so fine-tuning must move bits.
  SpnServableConfig spn_config;
  spn_config.corr_threshold = 2.0;
  spn_config.min_instances = 128;

  auto factory = [&](const data::Table& shard_table, int /*shard_id*/,
                     uint64_t shard_seed) -> std::shared_ptr<core::ServableModel> {
    SpnServableConfig sc = spn_config;
    sc.seed = shard_seed;
    return std::make_shared<SpnServable>(shard_table, sc);
  };
  shard::ShardedServable sharded(s.table, config, factory);
  ASSERT_EQ(sharded.num_shards(), 4);

  // A query pinned to one shard by an equality on the partition column, plus
  // a correlated second predicate the product-only shard SPN must misestimate:
  // pruning must answer with exactly that shard's model.
  const shard::ShardDescriptor& shard0 = sharded.partitioner().shard(0);
  workload::Query pinned(s.table.num_cols());
  workload::Predicate pred;
  pred.col = sharded.partitioner().partition_col();
  pred.op = workload::Op::kEq;
  pred.code = shard0.code_lo;
  pinned.AddPredicate(pred, s.table.column(pred.col).domain());
  workload::Predicate second;
  second.col = 1;
  second.op = workload::Op::kLe;
  second.code = shard0.code_lo;  // b tracks a, so this is far from independent.
  pinned.AddPredicate(second, s.table.column(1).domain());
  ASSERT_EQ(sharded.partitioner().CandidateShards(pinned),
            std::vector<int>{0});
  EXPECT_DOUBLE_EQ(sharded.EstimateCard(pinned),
                   sharded.shard_model(0).EstimateCard(pinned));

  // Batched == sequential, bitwise, across the pruned fan-out.
  std::vector<workload::Query> queries{pinned};
  for (const auto& lq : s.test) queries.push_back(lq.query);
  const std::vector<double> batched = sharded.EstimateCards(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], sharded.EstimateCard(queries[i]));
  }

  // Fine-tune with feedback that routes only to shard 0: the other shards
  // must stay bitwise identical, and spanning queries are dropped.
  std::vector<std::string> before;
  for (int sh = 0; sh < sharded.num_shards(); ++sh) {
    before.push_back(Signature(sharded.shard_model(sh)));
  }
  workload::Workload feedback;
  workload::LabeledQuery pinned_lq;
  pinned_lq.query = pinned;
  pinned_lq.card = static_cast<double>(workload::ExecuteCount(s.table, pinned));
  feedback.push_back(pinned_lq);
  workload::Query span_q(s.table.num_cols());  // No partition-column filter:
  workload::Predicate sp;                      // every shard is a candidate.
  sp.col = 1;
  sp.op = workload::Op::kGe;
  sp.code = 32;
  span_q.AddPredicate(sp, s.table.column(1).domain());
  workload::LabeledQuery spanning;
  spanning.query = span_q;
  spanning.card = static_cast<double>(workload::ExecuteCount(s.table, span_q));
  feedback.push_back(spanning);

  std::vector<workload::Workload> routed;
  EXPECT_EQ(sharded.RouteWorkload(feedback, &routed), 1u);  // Spanning drop.
  ASSERT_EQ(routed[0].size(), 1u);

  auto clone = sharded.CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = 64;
  EXPECT_GT(clone->FineTune(feedback, spec), 0u);
  auto& sharded_clone = dynamic_cast<shard::ShardedServable&>(*clone);
  EXPECT_NE(Signature(sharded_clone.shard_model(0)), before[0]);
  for (int sh = 1; sh < sharded.num_shards(); ++sh) {
    EXPECT_EQ(Signature(sharded_clone.shard_model(sh)), before[static_cast<size_t>(sh)]);
  }
  // The clone's training never touched the source deployment.
  for (int sh = 0; sh < sharded.num_shards(); ++sh) {
    EXPECT_EQ(Signature(sharded.shard_model(sh)), before[static_cast<size_t>(sh)]);
  }
}

}  // namespace
}  // namespace uae
