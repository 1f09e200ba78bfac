// Sampler conformance suite: the wavefront sampler (core/wavefront) must be
// bit-identical to the per-query progressive sampler (core/progressive) for
// any wavefront width, any batch composition, and any thread count. These
// tests pin that contract:
//
//  * widths {1, 8, 64} against the per-query reference, query by query;
//  * batch-composition invariance (singletons, shuffled batches, subsets);
//  * repeated batched runs are bit-stable (thread-count independence rides on
//    per-query RNG purity plus row-deterministic kernels; CI exercises the
//    same suite on machines with different core counts);
//  * zero-mass early exit: provably-empty predicates estimate exactly zero
//    without perturbing neighbouring lanes or queries;
//  * seeded property sweeps: 300 generator queries per dataset, wavefront vs
//    per-query, exact equality;
//  * join sub-plans (fanout-weight and indicator targets): batched, shuffled
//    and explicit-width wavefront runs against per-query EstimateJoinCard.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/progressive.h"
#include "core/uae.h"
#include "core/wavefront.h"
#include "data/imdb_star.h"
#include "data/synthetic.h"
#include "util/mathutil.h"
#include "workload/generator.h"
#include "workload/join_workload.h"

namespace uae::core {
namespace {

UaeConfig SmallConfig(uint64_t seed) {
  UaeConfig cfg;
  cfg.hidden = 32;
  cfg.ps_samples = 48;
  cfg.seed = seed;
  return cfg;
}

struct Dataset {
  data::Table table;
  Uae uae;
  std::vector<workload::Query> queries;

  Dataset(data::Table t, const UaeConfig& cfg, uint64_t gen_seed, int n_queries)
      : table(std::move(t)), uae(table, cfg) {
    uae.TrainDataEpochs(2);
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, gen_seed);
    for (const auto& lq : gen.GenerateLabeled(n_queries, nullptr)) {
      queries.push_back(lq.query);
    }
  }
};

Dataset& Correlated() {
  static Dataset* d =
      new Dataset(data::TinyCorrelated(1500, 7), SmallConfig(17), 41, 300);
  return *d;
}

Dataset& Dmv() {
  static Dataset* d = []() {
    UaeConfig cfg = SmallConfig(29);
    cfg.ps_samples = 32;
    return new Dataset(data::SyntheticDmv(2000, 11), cfg, 43, 300);
  }();
  return *d;
}

/// Per-query reference estimates through the legacy sampler, with the exact
/// serving RNG scheme (seed x fingerprint).
std::vector<double> ReferenceSelectivities(const Dataset& d,
                                           std::span<const workload::Query> qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const auto& q : qs) {
    QueryTargets targets = BuildTargets(q, d.table, d.uae.schema());
    util::Rng rng(util::SplitMix64(d.uae.config().seed ^
                                   util::SplitMix64(q.Fingerprint())));
    out.push_back(
        ProgressiveSample(d.uae.model(), targets, d.uae.config().ps_samples, &rng));
  }
  return out;
}

/// Direct wavefront run at an explicit width over the frozen backend, with
/// the serving RNG scheme (seed x fingerprint).
std::vector<double> WavefrontAtWidth(const Uae& uae,
                                     std::span<const QueryTargets> targets,
                                     std::span<const uint64_t> fingerprints,
                                     int width) {
  std::vector<util::Rng> rngs;
  for (uint64_t fp : fingerprints) {
    rngs.push_back(
        util::Rng(util::SplitMix64(uae.config().seed ^ util::SplitMix64(fp))));
  }
  WavefrontConfig wc;
  wc.num_samples = uae.config().ps_samples;
  wc.wave_width = width;
  return WavefrontSampleSelectivities(*uae.FrozenBackend(), targets, rngs, wc);
}

std::vector<double> WavefrontAtWidth(const Dataset& d,
                                     std::span<const workload::Query> qs,
                                     int width) {
  std::vector<QueryTargets> targets;
  std::vector<uint64_t> fingerprints;
  for (const auto& q : qs) {
    targets.push_back(BuildTargets(q, d.table, d.uae.schema()));
    fingerprints.push_back(q.Fingerprint());
  }
  return WavefrontAtWidth(d.uae, targets, fingerprints, width);
}

TEST(SamplerConformanceTest, BitwiseParityAcrossWavefrontWidths) {
  Dataset& d = Correlated();
  std::span<const workload::Query> qs(d.queries.data(), 40);
  std::vector<double> reference = ReferenceSelectivities(d, qs);
  for (int width : {1, 8, 64}) {
    std::vector<double> wave = WavefrontAtWidth(d, qs, width);
    ASSERT_EQ(wave.size(), reference.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      // Exact: not EXPECT_DOUBLE_EQ's 4-ULP tolerance.
      EXPECT_EQ(wave[i], reference[i]) << "width " << width << " query " << i;
    }
  }
}

TEST(SamplerConformanceTest, BatchCompositionInvariance) {
  Dataset& d = Correlated();
  std::span<const workload::Query> qs(d.queries.data(), 32);
  std::vector<double> batched = d.uae.EstimateSelectivities(qs);

  // Singletons: every query estimated alone must reproduce its batched value.
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(d.uae.EstimateSelectivity(qs[i]), batched[i]) << "query " << i;
  }

  // Shuffled batch: same queries, different order and hence different wave
  // and lane packing — values must follow the query, not the slot.
  std::vector<size_t> perm(qs.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::mt19937_64 shuffle_rng(99);
  std::shuffle(perm.begin(), perm.end(), shuffle_rng);
  std::vector<workload::Query> shuffled;
  for (size_t i : perm) shuffled.push_back(qs[i]);
  std::vector<double> shuffled_out = d.uae.EstimateSelectivities(shuffled);
  for (size_t j = 0; j < perm.size(); ++j) {
    EXPECT_EQ(shuffled_out[j], batched[perm[j]]) << "slot " << j;
  }

  // Subsets: odd-indexed queries batched together keep their values.
  std::vector<workload::Query> subset;
  for (size_t i = 1; i < qs.size(); i += 2) subset.push_back(qs[i]);
  std::vector<double> subset_out = d.uae.EstimateSelectivities(subset);
  for (size_t j = 0; j < subset.size(); ++j) {
    EXPECT_EQ(subset_out[j], batched[2 * j + 1]) << "subset slot " << j;
  }
}

TEST(SamplerConformanceTest, RepeatedBatchedRunsAreBitStable) {
  // Thread-count independence reduces to per-query RNG purity plus
  // row-deterministic kernels; within one process the observable contract is
  // that repeated batched runs (whatever the pool does) never drift.
  Dataset& d = Correlated();
  std::span<const workload::Query> qs(d.queries.data(), 24);
  std::vector<double> first = d.uae.EstimateSelectivities(qs);
  std::vector<double> reference = ReferenceSelectivities(d, qs);
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], reference[i]);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> again = d.uae.EstimateSelectivities(qs);
    EXPECT_EQ(again, first) << "rep " << rep;
  }
}

TEST(SamplerConformanceTest, ZeroMassEarlyExitOnEmptyRange) {
  Dataset& d = Correlated();
  // An empty code range (lo > hi) can never match: the lane dies on that
  // column's first step, the estimate is exactly zero, and no RNG draw is
  // consumed for dead lanes.
  workload::Query empty_range(d.table.num_cols());
  auto& c0 = empty_range.mutable_constraint(0);
  c0.kind = workload::Constraint::Kind::kRange;
  c0.lo = 5;
  c0.hi = 2;
  EXPECT_EQ(d.uae.EstimateSelectivity(empty_range), 0.0);

  // An empty IN set compiles to an all-zero mask target: same early exit.
  workload::Query empty_in(d.table.num_cols());
  empty_in.mutable_constraint(1).kind = workload::Constraint::Kind::kIn;
  EXPECT_EQ(d.uae.EstimateSelectivity(empty_in), 0.0);

  // Batched alongside live queries, the dead queries must not perturb their
  // neighbours (lane compaction changes every subsequent batch's row layout).
  std::vector<workload::Query> mixed;
  mixed.push_back(d.queries[0]);
  mixed.push_back(empty_range);
  mixed.push_back(d.queries[1]);
  mixed.push_back(empty_in);
  mixed.push_back(d.queries[2]);
  std::vector<double> out = d.uae.EstimateSelectivities(mixed);
  EXPECT_EQ(out[0], d.uae.EstimateSelectivity(d.queries[0]));
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], d.uae.EstimateSelectivity(d.queries[1]));
  EXPECT_EQ(out[3], 0.0);
  EXPECT_EQ(out[4], d.uae.EstimateSelectivity(d.queries[2]));
}

TEST(SamplerConformanceTest, WildcardOnlyQueryEstimatesOne) {
  Dataset& d = Correlated();
  // No constrained column: the wavefront never gathers a lane, every density
  // stays 1, and the selectivity is exactly 1 in both samplers.
  workload::Query wildcard(d.table.num_cols());
  std::vector<workload::Query> qs{wildcard};
  EXPECT_EQ(d.uae.EstimateSelectivities(qs)[0], 1.0);
  EXPECT_EQ(d.uae.EstimateSelectivity(wildcard), 1.0);
}

TEST(SamplerConformanceTest, PropertySweepCorrelated) {
  Dataset& d = Correlated();
  std::vector<double> reference = ReferenceSelectivities(d, d.queries);
  std::vector<double> wave = d.uae.EstimateSelectivities(d.queries);
  ASSERT_EQ(wave.size(), reference.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(wave[i], reference[i]) << "query " << i;
  }
}

TEST(SamplerConformanceTest, PropertySweepDmv) {
  Dataset& d = Dmv();
  std::vector<double> reference = ReferenceSelectivities(d, d.queries);
  std::vector<double> wave = d.uae.EstimateSelectivities(d.queries);
  ASSERT_EQ(wave.size(), reference.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(wave[i], reference[i]) << "query " << i;
  }
  // The DMV generator factorizes nothing at the default threshold, so also
  // sweep a width other than the config default through the backend directly.
  std::span<const workload::Query> head(d.queries.data(), 64);
  std::vector<double> w64 = WavefrontAtWidth(d, head, 64);
  for (size_t i = 0; i < w64.size(); ++i) EXPECT_EQ(w64[i], reference[i]);
}

TEST(SamplerConformanceTest, JoinSubplanParityAcrossWidthsAndBatches) {
  // Join sub-plans ride the same wavefront as single-table queries: every
  // sub-plan the optimizer can cost, so tables left out carry fanout-weight
  // targets and joined ones their indicator constraints.
  data::ImdbStarConfig ic;
  ic.num_titles = 600;
  const data::JoinUniverse uni = data::BuildImdbStar(ic);
  Uae uae(uni, SmallConfig(23));
  uae.TrainDataEpochs(1);
  workload::JoinQueryGenerator gen(uni, workload::JoinGeneratorConfig{}, 53);
  std::vector<workload::JoinQuery> subplans;
  for (int i = 0; i < 6; ++i) {
    const workload::JoinQuery q = gen.Generate();
    for (uint32_t s = 1; s <= q.table_mask; ++s) {
      if ((s & q.table_mask) == s) {
        subplans.push_back(workload::RestrictToSubset(uni, q, s));
      }
    }
  }
  std::vector<double> reference;
  for (const auto& q : subplans) reference.push_back(uae.EstimateJoinCard(q));

  std::vector<double> batched = uae.EstimateJoinCards(subplans);
  ASSERT_EQ(batched.size(), reference.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], reference[i]) << "sub-plan " << i;
  }

  std::vector<size_t> perm(subplans.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::mt19937_64 shuffle_rng(7);
  std::shuffle(perm.begin(), perm.end(), shuffle_rng);
  std::vector<workload::JoinQuery> shuffled;
  for (size_t i : perm) shuffled.push_back(subplans[i]);
  std::vector<double> shuffled_out = uae.EstimateJoinCards(shuffled);
  for (size_t j = 0; j < perm.size(); ++j) {
    EXPECT_EQ(shuffled_out[j], reference[perm[j]]) << "slot " << j;
  }

  std::vector<QueryTargets> targets;
  std::vector<uint64_t> fingerprints;
  int weighted = 0;
  for (const auto& q : subplans) {
    targets.push_back(BuildJoinTargets(q, uni, uae.schema()));
    fingerprints.push_back(workload::JoinFingerprint(q));
    for (const ColumnTarget& c : targets.back().cols) {
      if (c.kind == ColumnTarget::Kind::kWeights) ++weighted;
    }
  }
  EXPECT_GT(weighted, 0) << "no sub-plan carries a fanout-weight target";
  for (int width : {1, 64}) {
    std::vector<double> sels = WavefrontAtWidth(uae, targets, fingerprints, width);
    for (size_t i = 0; i < sels.size(); ++i) {
      EXPECT_EQ(sels[i] * static_cast<double>(uni.full_join_rows), reference[i])
          << "width " << width << " sub-plan " << i;
    }
  }
}

}  // namespace
}  // namespace uae::core
