// ingest/: staleness-driven incremental refresh —
//  * only the stale shard retrains; every other shard's parameters stay
//    BITWISE identical through clone + publish (the PR 5 serialize-compare
//    pattern applied to the refresh cycle);
//  * unseen values become exactly queryable through the published
//    DeltaAwareModel tail, with no dictionary remapping;
//  * the regression guard can veto a refresh (incumbent keeps serving,
//    watermarks stay armed);
//  * published estimates are deterministic within a generation;
//  * a Start()ed controller refreshes a stale shard on its own;
//  * the controller refreshes any ShardedServable whose shard models ingest
//    rows — a deployment built straight from a core::Uae factory refreshes
//    bit for bit like the ShardedUae preset;
//  * explicit shard lists are bounds-checked and deduplicated.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "estimators/spn_servable.h"
#include "ingest/refresh.h"
#include "nn/serialize.h"
#include "serve/service.h"
#include "shard/sharded_uae.h"
#include "workload/executor.h"

namespace uae::ingest {
namespace {

core::UaeConfig SmallConfig() {
  core::UaeConfig c;
  c.hidden = 16;
  c.ps_samples = 64;
  c.data_batch = 128;
  c.seed = 9;
  return c;
}

std::string ShardParams(const shard::ShardedServable& model, int s) {
  const auto& uae = dynamic_cast<const core::Uae&>(model.shard_model(s));
  return nn::SerializeParams(uae.model().Parameters());
}

struct Fixture {
  data::Table table = data::SyntheticDmv(2000, 7);
  std::shared_ptr<shard::ShardedServable> model;
  std::unique_ptr<serve::EstimationService> service;
  std::unique_ptr<IngestService> ingest;

  /// A trained 4-shard UAE deployment: the ShardedUae preset, or (preset =
  /// false) the same deployment built from a core::Uae factory.
  explicit Fixture(bool preset = true) {
    if (preset) {
      shard::ShardedUaeConfig sc;
      sc.base = SmallConfig();
      sc.partition.num_shards = 4;
      auto uae = std::make_shared<shard::ShardedUae>(table, sc);
      uae->TrainDataEpochs(1);
      model = std::move(uae);
    } else {
      shard::ShardedServableConfig sc;
      sc.partition.num_shards = 4;
      sc.base_seed = SmallConfig().seed;
      model = std::make_shared<shard::ShardedServable>(
          table, sc,
          [](const data::Table& shard_table, int, uint64_t shard_seed) {
            core::UaeConfig c = SmallConfig();
            c.seed = shard_seed;
            auto uae = std::make_shared<core::Uae>(shard_table, c);
            uae->TrainDataEpochs(1);
            return uae;
          });
    }
    service = std::make_unique<serve::EstimationService>(model);
    IngestConfig ic;
    ic.compact_min_delta = 0;
    ingest = std::make_unique<IngestService>(&table, &model->partitioner(), ic);
  }

  /// Replays rows belonging to shard `target` back into the stream.
  size_t FeedShard(int target, size_t count) {
    const int pcol = model->partitioner().partition_col();
    size_t sent = 0;
    for (size_t r = 0; r < 2000 && sent < count; ++r) {
      if (model->partitioner().ShardForCode(table.column(pcol).code_at(r)) ==
          target) {
        if (!ingest->AppendCodes(table.RowCodes(r))) break;
        ++sent;
      }
    }
    ingest->Flush();
    return sent;
  }

  /// Streams `count` rows into shard `target` that carry a value column
  /// `col`'s frozen dictionary has never seen: they reach the tail, never a
  /// shard model.
  void FeedUnseen(int target, int col, size_t count) {
    const int pcol = model->partitioner().partition_col();
    const int64_t unseen = static_cast<int64_t>(table.column(col).domain()) + 7;
    for (size_t r = 0; r < 2000 && count > 0; ++r) {
      if (model->partitioner().ShardForCode(table.column(pcol).code_at(r)) !=
          target) {
        continue;
      }
      std::vector<data::Value> values;
      for (int c = 0; c < table.num_cols(); ++c) {
        values.push_back(c == col ? data::Value(unseen)
                                  : table.column(c).ValueForCode(
                                        table.column(c).code_at(r)));
      }
      ASSERT_TRUE(ingest->Append(std::move(values)));
      --count;
    }
    ingest->Flush();
  }
};

TEST(RefreshControllerTest, NoPendingRowsSkips) {
  Fixture f;
  RefreshConfig rc;
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, rc);
  RefreshResult r = ctrl.RefreshIfStale();
  EXPECT_EQ(r.outcome, RefreshOutcome::kSkippedNoStaleShards);
  EXPECT_EQ(f.service->CurrentGeneration(), 1u);
}

TEST(RefreshControllerTest, OnlyStaleShardRetrainsOthersBitwiseIdentical) {
  Fixture f;
  ASSERT_EQ(f.FeedShard(1, 64), 64u);

  std::vector<std::string> before;
  for (int s = 0; s < 4; ++s) before.push_back(ShardParams(*f.model, s));

  RefreshConfig rc;
  rc.staleness.trigger_rows = 32;
  rc.staleness.trigger_delta_ratio = 0;
  rc.staleness.trigger_unseen_rows = 0;
  rc.data_epochs = 1;
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, rc);

  RefreshResult r = ctrl.RefreshIfStale();
  ASSERT_EQ(r.outcome, RefreshOutcome::kPublished);
  EXPECT_EQ(r.refreshed_shards, (std::vector<int>{1}));
  EXPECT_EQ(r.rows_ingested, 64u);
  EXPECT_EQ(r.tail_rows, 0u);
  EXPECT_EQ(r.generation, 2u);
  EXPECT_EQ(f.service->CurrentGeneration(), 2u);

  std::shared_ptr<const shard::ShardedServable> refreshed = ctrl.current_base();
  ASSERT_NE(refreshed.get(), f.model.get());
  // The stale shard absorbed the delta rows and its parameters moved...
  EXPECT_EQ(refreshed->shard_model(1).num_rows(),
            f.model->shard_model(1).num_rows() + 64);
  EXPECT_NE(ShardParams(*refreshed, 1), before[1]);
  // ...while every untouched shard is bitwise identical.
  for (int s : {0, 2, 3}) {
    EXPECT_EQ(ShardParams(*refreshed, s), before[s]) << "shard " << s;
    EXPECT_EQ(refreshed->shard_model(s).num_rows(),
              f.model->shard_model(s).num_rows());
  }
  // The source model itself was never mutated (clone-then-train).
  for (int s = 0; s < 4; ++s) EXPECT_EQ(ShardParams(*f.model, s), before[s]);

  // Watermarks advanced: the same staleness config no longer fires.
  EXPECT_EQ(ctrl.RefreshIfStale().outcome,
            RefreshOutcome::kSkippedNoStaleShards);
  EXPECT_EQ(ctrl.Stats().published, 1u);
}

TEST(RefreshControllerTest, StartedLoopRefreshesStaleShard) {
  Fixture f;
  ASSERT_EQ(f.FeedShard(1, 64), 64u);
  RefreshConfig rc;
  rc.staleness.trigger_rows = 32;
  rc.period_ms = 5;
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, rc);
  ctrl.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (ctrl.Stats().published == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(ctrl.Stats().published, 1u) << "the started loop never refreshed";
  ctrl.Stop();
  EXPECT_EQ(ctrl.Stats().rows_ingested, 64u);
  EXPECT_EQ(ctrl.Stats().last_published_generation, 2u);
  EXPECT_EQ(f.service->CurrentGeneration(), 2u);
  EXPECT_TRUE(ctrl.monitor().StaleShards().empty());
}

TEST(RefreshControllerTest, UnseenValueQueryableExactlyViaTail) {
  // A controlled integer table: partition column k with frozen values
  // 0,10,...,70; stream in 12 rows of the unseen value 35.
  std::vector<int64_t> k, x;
  for (int i = 0; i < 400; ++i) {
    k.push_back((i % 8) * 10);
    x.push_back(i % 5);
  }
  std::vector<data::Column> cols;
  cols.push_back(data::Column::FromInts("k", k));
  cols.push_back(data::Column::FromInts("x", x));
  data::Table table("t", std::move(cols));

  shard::ShardedUaeConfig sc;
  sc.base = SmallConfig();
  sc.partition.num_shards = 2;
  sc.partition.partition_col = 0;
  auto model = std::make_shared<shard::ShardedUae>(table, sc);
  model->TrainDataEpochs(1);
  serve::EstimationService service(model);
  IngestConfig ic;
  ic.compact_min_delta = 0;
  IngestService ingest(&table, &model->partitioner(), ic);

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(ingest.Append(
        {data::Value(int64_t{35}), data::Value(int64_t{i % 5})}));
  }
  ingest.Flush();

  RefreshConfig rc;
  rc.staleness.trigger_rows = 0;
  rc.staleness.trigger_delta_ratio = 0;
  rc.staleness.trigger_unseen_rows = 8;
  RefreshController ctrl(&ingest, &service, model, rc);
  RefreshResult r = ctrl.RefreshIfStale();
  ASSERT_EQ(r.outcome, RefreshOutcome::kPublished);
  EXPECT_EQ(r.tail_rows, 12u);
  EXPECT_EQ(r.rows_ingested, 0u);  // Overflow rows never enter a model.

  // The query literal compiles to the stable overflow code — no remapping.
  const data::Column& kcol = table.column(0);
  auto code = kcol.CodeForValue(data::Value(int64_t{35}));
  ASSERT_TRUE(code.has_value());
  ASSERT_GE(*code, kcol.domain());
  workload::Query q(table.num_cols());
  workload::Predicate p;
  p.col = 0;
  p.op = workload::Op::kEq;
  p.code = *code;
  q.AddPredicate(p, kcol.total_domain());

  auto published = std::dynamic_pointer_cast<const DeltaAwareModel>(
      service.CurrentSnapshot()->model);
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->CountTail(q), 12u);  // Exact.
  const double est = published->EstimateCard(q);
  EXPECT_GE(est, 12.0);         // Tail contributes exactly; inner adds ~0.
  EXPECT_LE(est, 12.0 + 2.0);   // The frozen model has no mass there.
  // Ground truth agrees: the live table holds exactly 12 matching rows.
  auto pin = ingest.PinTable();
  EXPECT_EQ(workload::ExecuteCount(table, q), 12u);
}

TEST(RefreshControllerTest, GuardVetoKeepsIncumbentAndStaysArmed) {
  Fixture f;
  ASSERT_EQ(f.FeedShard(0, 48), 48u);

  workload::Query q(f.table.num_cols());
  workload::Predicate p;
  p.col = 0;
  p.op = workload::Op::kGe;
  p.code = 0;
  q.AddPredicate(p, f.table.column(0).domain());
  workload::Workload holdout;
  workload::LabeledQuery lq;
  lq.query = q;
  lq.card = static_cast<double>(workload::ExecuteCount(f.table, q));
  lq.selectivity = 1.0;
  holdout.push_back(lq);

  RefreshConfig rc;
  rc.staleness.trigger_rows = 32;
  rc.guard_max_ratio = 1e-12;  // Impossible bar: always reject.
  rc.holdout_provider = [holdout] { return holdout; };
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, rc);

  RefreshResult r = ctrl.RefreshIfStale();
  EXPECT_EQ(r.outcome, RefreshOutcome::kRejectedByGuard);
  EXPECT_EQ(f.service->CurrentGeneration(), 1u);
  EXPECT_GT(f.ingest->shard_buffer(0).rows_since_refresh(), 0u);
  EXPECT_EQ(ctrl.Stats().rejected, 1u);

  // Relaxing the guard lets the same pending rows through.
  RefreshConfig ok = rc;
  ok.guard_max_ratio = 1e6;
  RefreshController ctrl2(f.ingest.get(), f.service.get(), f.model, ok);
  RefreshResult r2 = ctrl2.RefreshIfStale();
  EXPECT_EQ(r2.outcome, RefreshOutcome::kPublished);
  EXPECT_GT(r2.incumbent_median, 0.0);
  EXPECT_EQ(f.service->CurrentGeneration(), 2u);
}

TEST(RefreshControllerTest, EstimatesDeterministicWithinGeneration) {
  Fixture f;
  ASSERT_GT(f.FeedShard(2, 40), 0u);
  RefreshConfig rc;
  rc.staleness.trigger_rows = 16;
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, rc);
  ASSERT_EQ(ctrl.RefreshIfStale().outcome, RefreshOutcome::kPublished);

  workload::Query q(f.table.num_cols());
  workload::Predicate p;
  p.col = f.model->partitioner().partition_col();
  p.op = workload::Op::kLe;
  p.code = f.table.column(p.col).domain() / 2;
  q.AddPredicate(p, f.table.column(p.col).domain());

  auto snapshot = f.service->CurrentSnapshot();
  const double a = snapshot->model->EstimateCard(q);
  const double b = snapshot->model->EstimateCard(q);
  EXPECT_DOUBLE_EQ(a, b);
  std::vector<workload::Query> qs = {q, q};
  std::vector<double> batched = snapshot->model->EstimateCards(qs);
  EXPECT_DOUBLE_EQ(batched[0], a);
  EXPECT_DOUBLE_EQ(batched[1], a);
}

TEST(RefreshControllerTest, RefreshesAnyShardedServableLikeThePreset) {
  Fixture preset;
  Fixture generic(/*preset=*/false);
  const int pcol = preset.model->partitioner().partition_col();
  const int ucol = pcol == 0 ? 1 : 0;
  std::vector<std::string> before;
  for (int s = 0; s < 4; ++s) {
    before.push_back(ShardParams(*preset.model, s));
    EXPECT_EQ(ShardParams(*generic.model, s), before[s]) << "shard " << s;
  }

  RefreshConfig rc;
  rc.data_epochs = 1;
  std::vector<std::shared_ptr<const shard::ShardedServable>> refreshed;
  for (Fixture* f : {&preset, &generic}) {
    ASSERT_EQ(f->FeedShard(1, 64), 64u);
    f->FeedUnseen(1, ucol, 5);
    RefreshController ctrl(f->ingest.get(), f->service.get(), f->model, rc);
    RefreshResult r = ctrl.RefreshShards({1});
    ASSERT_EQ(r.outcome, RefreshOutcome::kPublished);
    EXPECT_EQ(r.rows_ingested, 64u);
    EXPECT_EQ(r.tail_rows, 5u);
    refreshed.push_back(ctrl.current_base());
    // The lineage grew by the in-domain rows only: tail rows never reach a
    // shard model.
    EXPECT_EQ(refreshed.back()->num_rows(),
              f->model->num_rows() + r.rows_ingested);
  }

  // The refreshed shard is bitwise the same through either type...
  EXPECT_NE(ShardParams(*refreshed[0], 1), before[1]);
  EXPECT_EQ(ShardParams(*refreshed[1], 1), ShardParams(*refreshed[0], 1));
  // ...and every untouched shard kept its parameters in both.
  for (const auto& model : refreshed) {
    for (int s : {0, 2, 3}) {
      EXPECT_EQ(ShardParams(*model, s), before[s]) << "shard " << s;
    }
  }
}

TEST(RefreshControllerTest, RefreshShardsDropsDuplicateIds) {
  Fixture f;
  ASSERT_EQ(f.FeedShard(1, 64), 64u);
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, {});
  RefreshResult r = ctrl.RefreshShards({1, 1});
  ASSERT_EQ(r.outcome, RefreshOutcome::kPublished);
  EXPECT_EQ(r.refreshed_shards, (std::vector<int>{1}));
  EXPECT_EQ(r.rows_ingested, 64u);
}

TEST(RefreshControllerDeathTest, RefreshShardsRejectsOutOfRangeIds) {
  Fixture f;
  RefreshController ctrl(f.ingest.get(), f.service.get(), f.model, {});
  EXPECT_DEATH_IF_SUPPORTED(ctrl.RefreshShards({7}), "shard id 7 out of range");
  EXPECT_DEATH_IF_SUPPORTED(ctrl.RefreshShards({0, -1}),
                            "shard id -1 out of range");
}

TEST(RefreshControllerDeathTest, IngestDataRowsNeedsTheCapability) {
  // The SPN backend learns from queries only: data ingest CHECK-fails
  // instead of silently dropping the rows.
  data::Table table = data::SyntheticDmv(400, 7);
  estimators::SpnServable spn(table, estimators::SpnServableConfig{});
  EXPECT_DEATH_IF_SUPPORTED(spn.IngestDataRows(table, 1),
                            "IngestDataRows on a model without data ingest");
}

}  // namespace
}  // namespace uae::ingest
