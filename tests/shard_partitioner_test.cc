// shard/partitioner: deterministic assignment, equi-depth balance,
// dictionary-preserving materialization, and — the load-bearing property —
// pruning never drops a shard that holds a matching row.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/synthetic.h"
#include "shard/partitioner.h"
#include "util/rng.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace uae::shard {
namespace {

data::Table MakeTable(size_t rows, uint64_t seed) {
  return data::SyntheticDmv(rows, seed);
}

TEST(PartitionerTest, SeedStableAndDeterministic) {
  data::Table t = MakeTable(2000, 3);
  PartitionConfig config;
  config.num_shards = 4;
  HorizontalPartitioner a(t, config);
  HorizontalPartitioner b(t, config);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (int s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(a.RowsForShard(s), b.RowsForShard(s));
    EXPECT_EQ(a.shard(s).code_lo, b.shard(s).code_lo);
    EXPECT_EQ(a.shard(s).code_hi, b.shard(s).code_hi);
  }
}

TEST(PartitionerTest, RowsPartitionedExactlyOnce) {
  data::Table t = MakeTable(1500, 7);
  PartitionConfig config;
  config.num_shards = 5;
  HorizontalPartitioner p(t, config);
  std::set<size_t> seen;
  size_t total = 0;
  for (int s = 0; s < p.num_shards(); ++s) {
    for (size_t r : p.RowsForShard(s)) {
      EXPECT_TRUE(seen.insert(r).second) << "row " << r << " in two shards";
    }
    total += p.RowsForShard(s).size();
    EXPECT_EQ(p.shard(s).rows, p.RowsForShard(s).size());
  }
  EXPECT_EQ(total, t.num_rows());
}

TEST(PartitionerTest, RangeShardsAreContiguousAndBalanced) {
  data::Table t = MakeTable(4000, 11);
  PartitionConfig config;
  config.num_shards = 8;
  HorizontalPartitioner p(t, config);
  ASSERT_EQ(p.num_shards(), 8);
  int32_t next_lo = 0;
  for (int s = 0; s < p.num_shards(); ++s) {
    const ShardDescriptor& d = p.shard(s);
    EXPECT_EQ(d.code_lo, next_lo);
    EXPECT_GE(d.code_hi, d.code_lo);
    next_lo = d.code_hi + 1;
    // Equi-depth: no shard should be grossly imbalanced (DMV's partition
    // column is Zipf-skewed; allow generous slack around rows/N).
    EXPECT_LT(d.rows, t.num_rows());
  }
  EXPECT_EQ(next_lo, t.column(p.partition_col()).domain());
  // The largest shard stays within a few x of the ideal depth.
  size_t max_rows = 0;
  for (int s = 0; s < p.num_shards(); ++s) max_rows = std::max(max_rows, p.shard(s).rows);
  EXPECT_LE(max_rows, t.num_rows() / 2);
}

TEST(PartitionerTest, ShardCountClampedToDomain) {
  // 3-column tiny table; partition on a 2-value column => at most 2 shards.
  data::Table t = data::TinyCorrelated(200, 1);
  PartitionConfig config;
  config.num_shards = 64;
  config.partition_col = 0;
  HorizontalPartitioner p(t, config);
  EXPECT_LE(p.num_shards(), t.column(0).domain());
  EXPECT_GE(p.num_shards(), 1);
}

TEST(PartitionerTest, MaterializePreservesDictionariesAndRowOrder) {
  data::Table t = MakeTable(800, 13);
  PartitionConfig config;
  config.num_shards = 3;
  HorizontalPartitioner p(t, config);
  std::vector<data::Table> shards = p.Materialize(t, "dmv");
  ASSERT_EQ(shards.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    const data::Table& st = shards[static_cast<size_t>(s)];
    ASSERT_EQ(st.num_cols(), t.num_cols());
    for (int c = 0; c < t.num_cols(); ++c) {
      // Full dictionary preserved: global code space stays valid.
      EXPECT_EQ(st.column(c).domain(), t.column(c).domain());
    }
    const std::vector<size_t>& rows = p.RowsForShard(s);
    ASSERT_EQ(st.num_rows(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(st.RowCodes(i), t.RowCodes(rows[i]));
    }
  }
}

/// The pruning soundness property: for any query, every shard holding at
/// least one matching row must be a candidate. (The converse — candidates
/// with no matching rows — is allowed: pruning is conservative.)
TEST(PartitionerTest, CandidateShardsNeverDropAMatchingShard) {
  data::Table t = MakeTable(1200, 17);
  PartitionConfig config;
  config.num_shards = 6;
  HorizontalPartitioner p(t, config);
  std::vector<data::Table> shards = p.Materialize(t, "dmv");

  workload::GeneratorConfig gc;
  gc.bounded_col = p.partition_col();
  gc.target_volume = 0.05;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(t, gc, 23);
  for (int i = 0; i < 40; ++i) {
    workload::Query q = gen.Generate();
    std::vector<int> cands = p.CandidateShards(q);
    int64_t total = workload::ExecuteCount(t, q);
    int64_t covered = 0;
    for (int s = 0; s < p.num_shards(); ++s) {
      int64_t in_shard =
          workload::ExecuteCount(shards[static_cast<size_t>(s)], q);
      if (in_shard > 0) {
        EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), s))
            << "pruned a shard with " << in_shard << " matching rows";
        EXPECT_TRUE(p.MayMatch(q, s));
      }
      covered += in_shard;
    }
    // Shards partition the rows: per-shard counts sum to the global count.
    EXPECT_EQ(covered, total);
  }
}

TEST(PartitionerTest, PointAndInPredicatesPruneToFewShards) {
  data::Table t = MakeTable(1000, 19);
  PartitionConfig config;
  config.num_shards = 8;
  HorizontalPartitioner p(t, config);
  const int pcol = p.partition_col();
  const int32_t domain = t.column(pcol).domain();

  workload::Query eq(t.num_cols());
  eq.AddPredicate({pcol, workload::Op::kEq, domain / 2, {}}, domain);
  EXPECT_EQ(p.CandidateShards(eq).size(), 1u);

  workload::Query in(t.num_cols());
  in.AddPredicate({pcol, workload::Op::kIn, 0, {1, 2, domain - 1}}, domain);
  EXPECT_LE(p.CandidateShards(in).size(), 3u);
  EXPECT_GE(p.CandidateShards(in).size(), 1u);

  // Unconstrained partition column: no pruning.
  workload::Query open(t.num_cols());
  open.AddPredicate({0, workload::Op::kEq, 0, {}}, t.column(0).domain());
  EXPECT_EQ(p.CandidateShards(open).size(), static_cast<size_t>(p.num_shards()));

  // Provably empty range: everything pruned.
  workload::Query empty(t.num_cols());
  empty.AddPredicate({pcol, workload::Op::kGt, domain - 1, {}}, domain);
  EXPECT_TRUE(p.CandidateShards(empty).empty());
}

TEST(PartitionerTest, MixShardSeedKeepsShardZeroIdentity) {
  EXPECT_EQ(MixShardSeed(42, 0), 42u);
  EXPECT_NE(MixShardSeed(42, 1), 42u);
  EXPECT_NE(MixShardSeed(42, 1), MixShardSeed(42, 2));
  EXPECT_NE(MixShardSeed(42, 1), MixShardSeed(43, 1));
}

}  // namespace
}  // namespace uae::shard
