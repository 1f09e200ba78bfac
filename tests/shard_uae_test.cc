// shard/: the deterministic parity guarantees of the sharded deployment,
// through its UAE preset —
//  * N=1 sharded == monolithic BITWISE (same seeds, masks, training stream);
//  * shard-sum estimates stay accurate for any shard count on an
//    exact-oracle-labeled workload (invariance within q-error tolerance);
//  * pruning is exact on partition-targeted queries and per-shard fine-tuning
//    leaves untouched shards' parameters bit-identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "data/synthetic.h"
#include "nn/serialize.h"
#include "shard/sharded_uae.h"
#include "util/quantiles.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae::shard {
namespace {

/// The serialized parameters of shard `s`'s UAE model.
std::string ShardParams(const ShardedServable& model, int s) {
  const auto& uae = dynamic_cast<const core::Uae&>(model.shard_model(s));
  return nn::SerializeParams(uae.model().Parameters());
}

core::UaeConfig SmallConfig() {
  core::UaeConfig c;
  c.hidden = 16;
  c.ps_samples = 64;
  c.data_batch = 128;
  c.seed = 9;
  return c;
}

struct Fixture {
  data::Table table = data::SyntheticDmv(2500, 21);
  workload::Workload labeled;
  std::vector<workload::Query> queries;

  Fixture() {
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 33);
    for (int i = 0; i < 32; ++i) {
      workload::LabeledQuery lq;
      lq.query = gen.Generate();
      lq.card = static_cast<double>(workload::ExecuteCount(table, lq.query));
      lq.selectivity = lq.card / static_cast<double>(table.num_rows());
      labeled.push_back(lq);
      queries.push_back(lq.query);
    }
  }
};

TEST(ShardedUaeTest, SingleShardBitwiseEqualsMonolithic) {
  Fixture f;
  core::UaeConfig base = SmallConfig();
  core::Uae mono(f.table, base);
  mono.TrainDataEpochs(2);

  ShardedUaeConfig sc;
  sc.base = base;
  sc.partition.num_shards = 1;
  ShardedUae sharded(f.table, sc);
  sharded.TrainDataEpochs(2);

  ASSERT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.num_rows(), mono.num_rows());
  EXPECT_EQ(sharded.SizeBytes(), mono.SizeBytes());
  // Parameters bit-identical after identical training streams...
  EXPECT_EQ(ShardParams(sharded, 0),
            nn::SerializeParams(mono.model().Parameters()));
  // ...and so are the estimates, single and batched.
  std::vector<double> mono_cards = mono.EstimateCards(f.queries);
  std::vector<double> shard_cards = sharded.EstimateCards(f.queries);
  ASSERT_EQ(mono_cards.size(), shard_cards.size());
  for (size_t i = 0; i < mono_cards.size(); ++i) {
    EXPECT_DOUBLE_EQ(mono_cards[i], shard_cards[i]) << "query " << i;
    EXPECT_DOUBLE_EQ(sharded.EstimateCard(f.queries[i]), shard_cards[i]);
  }
}

TEST(ShardedUaeTest, EstimateQualityInvariantToShardCount) {
  Fixture f;
  double first_median = 0.0;
  for (int n : {1, 2, 4}) {
    ShardedUaeConfig sc;
    sc.base = SmallConfig();
    sc.partition.num_shards = n;
    ShardedUae sharded(f.table, sc);
    sharded.TrainDataEpochs(2);
    std::vector<double> errors = workload::EvaluateQErrorsBatched(
        f.labeled, [&](std::span<const workload::Query> qs) {
          return sharded.EstimateCards(qs);
        });
    double median = util::Quantile(std::move(errors), 0.5);
    // Exact-oracle labels: the shard-sum stays a sane estimator at every N,
    // and quality does not degrade materially with the shard count.
    EXPECT_LT(median, 6.0) << n << " shards";
    if (n == 1) {
      first_median = median;
    } else {
      EXPECT_LT(median, first_median * 3.0 + 1.0) << n << " shards";
    }
  }
}

TEST(ShardedUaeTest, BatchedMatchesSingleAndPrunedFanoutCounts) {
  Fixture f;
  ShardedUaeConfig sc;
  sc.base = SmallConfig();
  sc.partition.num_shards = 4;
  ShardedUae sharded(f.table, sc);
  sharded.TrainDataEpochs(1);

  std::vector<double> batched = sharded.EstimateCards(f.queries);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], sharded.EstimateCard(f.queries[i]));
  }

  // A partition-targeted equality touches exactly one model.
  const int pcol = sharded.partitioner().partition_col();
  const int32_t domain = f.table.column(pcol).domain();
  workload::Query eq(f.table.num_cols());
  eq.AddPredicate({pcol, workload::Op::kEq, domain / 3, {}}, domain);
  EXPECT_EQ(sharded.partitioner().CandidateShards(eq).size(), 1u);

  // Pruning is exact there: the skipped shards hold zero matching rows, so
  // the pruned estimate equals the single candidate shard's estimate.
  int cand = sharded.partitioner().CandidateShards(eq)[0];
  EXPECT_DOUBLE_EQ(sharded.EstimateCard(eq),
                   sharded.shard_model(cand).EstimateCard(eq));
}

TEST(ShardedUaeTest, CloneIsIndependentAndBitIdentical) {
  Fixture f;
  ShardedUaeConfig sc;
  sc.base = SmallConfig();
  sc.partition.num_shards = 3;
  ShardedUae sharded(f.table, sc);
  sharded.TrainDataEpochs(1);

  std::unique_ptr<ShardedServable> clone = sharded.Clone();
  std::vector<double> a = sharded.EstimateCards(f.queries);
  std::vector<double> b = clone->EstimateCards(f.queries);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);

  // Fine-tuning the clone leaves the original untouched.
  core::FineTuneSpec spec;
  spec.query_steps = 10;
  clone->FineTune(f.labeled, spec);
  std::vector<double> a2 = sharded.EstimateCards(f.queries);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], a2[i]);
}

TEST(ShardedUaeTest, FineTuneRefitsOnlyTargetedShards) {
  Fixture f;
  ShardedUaeConfig sc;
  sc.base = SmallConfig();
  sc.partition.num_shards = 4;
  ShardedUae sharded(f.table, sc);
  sharded.TrainDataEpochs(1);

  // Feedback aimed at one shard: equality predicates on partition codes owned
  // by shard `target`.
  const HorizontalPartitioner& part = sharded.partitioner();
  const int pcol = part.partition_col();
  const int32_t domain = f.table.column(pcol).domain();
  const int target = part.ShardForCode(domain / 2);
  workload::Workload feedback;
  for (int32_t code = part.shard(target).code_lo;
       code <= part.shard(target).code_hi && feedback.size() < 24; ++code) {
    workload::LabeledQuery lq;
    lq.query = workload::Query(f.table.num_cols());
    lq.query.AddPredicate({pcol, workload::Op::kEq, code, {}}, domain);
    lq.card = static_cast<double>(workload::ExecuteCount(f.table, lq.query));
    feedback.push_back(lq);
  }
  ASSERT_GE(feedback.size(), 4u);

  std::vector<workload::Workload> routed;
  size_t dropped = sharded.RouteWorkload(feedback, &routed);
  EXPECT_EQ(dropped, 0u);
  for (int s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(routed[static_cast<size_t>(s)].size(),
              s == target ? feedback.size() : 0u);
  }

  std::vector<std::string> before;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    before.push_back(ShardParams(sharded, s));
  }
  core::FineTuneSpec spec;
  spec.query_steps = 8;
  sharded.FineTune(feedback, spec);
  for (int s = 0; s < sharded.num_shards(); ++s) {
    std::string after = ShardParams(sharded, s);
    if (s == target) {
      EXPECT_NE(after, before[static_cast<size_t>(s)]) << "target shard unchanged";
    } else {
      EXPECT_EQ(after, before[static_cast<size_t>(s)])
          << "untouched shard " << s << " was modified";
    }
  }
}

}  // namespace
}  // namespace uae::shard
