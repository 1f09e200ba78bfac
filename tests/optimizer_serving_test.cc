// ServedCardProvider: the optimizer-in-the-loop serving path. Pins the parity
// contract (service-routed sub-plan estimates are bit-identical to direct
// model calls for a fixed snapshot generation), concurrent planner threads
// sharing one provider, transparent hot-swap pickup of a published snapshot,
// and the SubplanMemo short-circuit.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/uae.h"
#include "data/imdb_star.h"
#include "optimizer/card_provider.h"
#include "optimizer/dp_optimizer.h"
#include "optimizer/subplan_memo.h"
#include "serve/service.h"
#include "workload/join_workload.h"

namespace uae::optimizer {
namespace {

core::UaeConfig SmallConfig() {
  core::UaeConfig cfg;
  cfg.hidden = 24;
  cfg.ps_samples = 32;
  cfg.seed = 7;
  return cfg;
}

/// Non-empty submasks of `mask` the DP's enumeration can ask a provider for.
std::vector<uint32_t> Submasks(uint32_t mask) {
  std::vector<uint32_t> out;
  for (uint32_t s = 1; s <= mask; ++s) {
    if ((s & mask) == s) out.push_back(s);
  }
  return out;
}

struct ServingFixture {
  data::JoinUniverse uni;
  std::shared_ptr<core::Uae> uae;
  std::vector<workload::JoinQuery> queries;

  ServingFixture() {
    data::ImdbStarConfig c;
    c.num_titles = 600;
    c.seed = 9;
    uni = data::BuildImdbStar(c);
    uae = std::make_shared<core::Uae>(uni, SmallConfig());
    uae->TrainDataEpochs(1);
    workload::JoinGeneratorConfig gc;
    gc.focused = true;
    workload::JoinQueryGenerator gen(uni, gc, 33);
    for (int i = 0; i < 3; ++i) queries.push_back(gen.Generate());
  }

  double Direct(const workload::JoinQuery& q, uint32_t submask) const {
    return uae->EstimateJoinCard(workload::RestrictToSubset(uni, q, submask));
  }
};

ServingFixture& Shared() {
  static ServingFixture* f = new ServingFixture();
  return *f;
}

TEST(ServedCardProviderTest, BitIdenticalToDirectPathForFixedGeneration) {
  ServingFixture& f = Shared();
  serve::EstimationService service(f.uae->CloneServable());
  ServedCardProvider served(f.uni, &service);
  ASSERT_EQ(service.CurrentGeneration(), 1u);

  for (const workload::JoinQuery& q : f.queries) {
    std::vector<uint32_t> subs = Submasks(q.table_mask);
    // Half the sub-plans go through the Prewarm fan-out (async micro-batches
    // that land in the result cache), half through cold Card() calls — both
    // must be bitwise equal to the direct model call.
    served.Prewarm(q, std::span<const uint32_t>(subs.data(), subs.size() / 2));
    for (uint32_t s : subs) {
      EXPECT_EQ(served.Card(q, s), f.Direct(q, s))
          << "mask=" << q.table_mask << " submask=" << s;
    }
  }
  EXPECT_EQ(service.CurrentGeneration(), 1u) << "no publish happened";
  EXPECT_GT(served.stats().service_requests, 0u);
  EXPECT_EQ(served.stats().memo_hits, 0u) << "no memo attached";
}

TEST(ServedCardProviderTest, ConcurrentPlannersSharingOneProviderAgree) {
  ServingFixture& f = Shared();
  serve::EstimationService service(f.uae->CloneServable());
  ServedCardProvider served(f.uni, &service);

  // Reference plans from the single-threaded direct provider.
  std::vector<PlanResult> reference;
  UaeCardProvider direct(f.uni, f.uae.get(), "UAE-direct");
  for (const auto& q : f.queries) {
    reference.push_back(OptimizeJoinOrder(f.uni, q, &direct));
  }

  // Several planner threads plan the SAME workload through ONE shared
  // provider: their Prewarm fan-outs coalesce into shared micro-batches and
  // race on the result cache, yet every thread must reproduce the reference
  // plans bitwise (join order AND estimated C_out cost).
  constexpr int kThreads = 4;
  std::vector<std::vector<PlanResult>> plans(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const auto& q : f.queries) {
          plans[static_cast<size_t>(t)].push_back(
              OptimizeJoinOrder(f.uni, q, &served));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(plans[static_cast<size_t>(t)].size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      const PlanResult& got = plans[static_cast<size_t>(t)][i];
      EXPECT_EQ(got.join_order, reference[i].join_order)
          << "thread " << t << " query " << i;
      EXPECT_EQ(got.estimated_cost, reference[i].estimated_cost)
          << "thread " << t << " query " << i;
    }
  }
  serve::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.requests, 0u);
  EXPECT_GT(stats.cache_hits, 0u)
      << "threads re-planning the same workload should share cached results";
}

TEST(ServedCardProviderTest, PicksUpPublishedSnapshot) {
  ServingFixture& f = Shared();
  serve::EstimationService service(f.uae->CloneServable());
  ServedCardProvider served(f.uni, &service);
  const workload::JoinQuery& q = f.queries.front();

  // Generation 1: the incumbent answers.
  EXPECT_EQ(served.Card(q, q.table_mask), f.Direct(q, q.table_mask));

  // Publish a further-trained clone — the optimizer is supposed to pick it up
  // transparently, with no provider-side invalidation.
  std::shared_ptr<core::Uae> next = f.uae->Clone();
  next->TrainDataEpochs(1);
  EXPECT_EQ(service.PublishSnapshot(next), 2u);

  int changed = 0;
  for (uint32_t s : Submasks(q.table_mask)) {
    workload::JoinQuery sub = workload::RestrictToSubset(f.uni, q, s);
    serve::ServeResult r = service.EstimateJoin(sub);
    EXPECT_EQ(r.generation, 2u) << "submask " << s;
    // Bit-identical to calling the published model directly...
    EXPECT_EQ(r.card, next->EstimateJoinCard(sub)) << "submask " << s;
    EXPECT_EQ(served.Card(q, s), r.card) << "submask " << s;
    // ... and (generically) different from the incumbent's answer.
    if (r.card != f.Direct(q, s)) ++changed;
  }
  EXPECT_GT(changed, 0) << "the extra epoch left every sub-plan estimate "
                           "bit-identical; hot-swap test is vacuous";
}

TEST(ServedCardProviderTest, MemoShortCircuitsServiceCalls) {
  ServingFixture& f = Shared();
  serve::EstimationService service(f.uae->CloneServable());
  SubplanMemo memo;
  ServedCardProvider served(f.uni, &service, &memo);
  const workload::JoinQuery& q = f.queries.front();

  // Seed the memo with an "observed truth" for the full sub-plan.
  workload::JoinQuery full =
      workload::RestrictToSubset(f.uni, q, q.table_mask);
  memo.Observe(SubplanFss(f.uni, full), 777.0);

  // The memo stores log(card); compare against its own exp() round trip.
  EXPECT_EQ(served.Card(q, q.table_mask), *memo.Lookup(SubplanFss(f.uni, full)))
      << "memoized sub-plans must bypass the model entirely";
  EXPECT_NEAR(served.Card(q, q.table_mask), 777.0, 1e-9);
  EXPECT_EQ(served.stats().memo_hits, 2u);
  EXPECT_EQ(served.stats().service_requests, 0u);
  EXPECT_EQ(service.Stats().requests, 0u);

  // A sub-plan the memo has never observed still routes to the service.
  uint32_t sub = q.table_mask & (q.table_mask - 1);  // Drop lowest bit.
  ASSERT_NE(sub, 0u);
  EXPECT_EQ(served.Card(q, sub), f.Direct(q, sub));
  EXPECT_EQ(served.stats().service_requests, 1u);

  // Prewarm skips memoized sub-plans (without counting them as answered
  // estimates) and issues the rest.
  std::vector<uint32_t> subs = Submasks(q.table_mask);
  served.Prewarm(q, subs);
  EXPECT_EQ(served.stats().memo_hits, 2u);
  EXPECT_EQ(served.stats().service_requests, 1u + subs.size() - 1);
}

}  // namespace
}  // namespace uae::optimizer
