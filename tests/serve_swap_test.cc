// Snapshot hot-swap under load: a background trainer publishes progressively
// more-trained model snapshots while client threads hammer the service. Every
// response must be attributable to exactly one published snapshot generation
// — its cardinality bit-identical to what that generation's model computes
// sequentially — i.e. no torn reads, no stale cache entries leaking across a
// swap, and per-client generations never moving backwards. Runs under the
// ASan/UBSan sanitizer job (unit label) and the TSan serve job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/uae.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "workload/generator.h"

namespace uae::serve {
namespace {

core::UaeConfig SmallConfig() {
  core::UaeConfig cfg;
  cfg.hidden = 24;
  cfg.ps_samples = 48;
  cfg.seed = 7;
  return cfg;
}

struct SwapFixture {
  static constexpr int kGenerations = 4;

  data::Table table;
  /// variants[g-1] is the model published as generation g; each is the
  /// previous one cloned and trained one epoch further, so every generation
  /// has distinct parameters.
  std::vector<std::shared_ptr<core::Uae>> variants;
  std::vector<workload::Query> queries;
  /// expected[g-1][i]: sequential EstimateCard of queries[i] on variants[g-1].
  std::vector<std::vector<double>> expected;

  SwapFixture() : table(data::TinyCorrelated(700, 3)) {
    auto base = std::make_shared<core::Uae>(table, SmallConfig());
    base->TrainDataEpochs(1);
    variants.push_back(base);
    for (int g = 1; g < kGenerations; ++g) {
      std::shared_ptr<core::Uae> next = variants.back()->Clone();
      next->TrainDataEpochs(1);
      variants.push_back(std::move(next));
    }

    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 13);
    for (const auto& lq : gen.GenerateLabeled(12, nullptr)) {
      queries.push_back(lq.query);
    }
    for (const auto& v : variants) {
      std::vector<double> cards;
      for (const auto& q : queries) cards.push_back(v->EstimateCard(q));
      expected.push_back(std::move(cards));
    }
  }
};

SwapFixture& Shared() {
  static SwapFixture* f = new SwapFixture();
  return *f;
}

TEST(ServeSwapTest, DistinctGenerationsProduceDistinctEstimates) {
  SwapFixture& f = Shared();
  // The attribution check below is only meaningful if generations actually
  // disagree on some query.
  bool any_difference = false;
  for (size_t i = 0; i < f.queries.size() && !any_difference; ++i) {
    any_difference = f.expected[0][i] != f.expected.back()[i];
  }
  EXPECT_TRUE(any_difference);
}

TEST(ServeSwapTest, EveryResponseAttributableToOnePublishedSnapshot) {
  SwapFixture& f = Shared();
  constexpr int kThreads = 6;
  constexpr int kRounds = 12;
  const size_t total =
      static_cast<size_t>(kThreads) * kRounds * f.queries.size();

  ServiceConfig cfg;
  cfg.max_batch = 8;
  EstimationService service(f.variants[0], cfg);

  std::atomic<size_t> completed{0};
  std::atomic<int> torn{0};           ///< card not matching the reported gen.
  std::atomic<int> bad_gen{0};        ///< gen outside the published set.
  std::atomic<int> regressions{0};    ///< per-client generation went backwards.
  std::mutex seen_mu;
  std::set<uint64_t> seen_generations;

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      uint64_t last_gen = 0;
      for (int r = 0; r < kRounds; ++r) {
        // Deterministic interleave (single-core machines included): at the
        // round boundaries aligned with the trainer's publish thresholds,
        // wait until that generation is live before continuing to hammer.
        if (r > 0 && r % (kRounds / SwapFixture::kGenerations) == 0) {
          uint64_t want =
              1 + static_cast<uint64_t>(r) /
                      (kRounds / SwapFixture::kGenerations);
          while (service.CurrentGeneration() < want) std::this_thread::yield();
        }
        for (size_t i = 0; i < f.queries.size(); ++i) {
          size_t qi = (i + static_cast<size_t>(t)) % f.queries.size();
          ServeResult res = service.Estimate(f.queries[qi]);
          completed.fetch_add(1);
          if (res.generation < 1 ||
              res.generation > static_cast<uint64_t>(SwapFixture::kGenerations)) {
            bad_gen.fetch_add(1);
            continue;
          }
          // The headline invariant: the value is exactly what the reported
          // generation's model computes for this query — nothing in between
          // two snapshots, nothing cached from an older one.
          if (res.card != f.expected[res.generation - 1][qi]) {
            torn.fetch_add(1);
          }
          // Read-read coherence on the snapshot slot: a client's observed
          // generation never decreases across its sequential requests.
          if (res.generation < last_gen) regressions.fetch_add(1);
          last_gen = std::max(last_gen, res.generation);
          std::lock_guard<std::mutex> lock(seen_mu);
          seen_generations.insert(res.generation);
        }
      }
    });
  }

  // Trainer: publish generation g once ~(g-1)/K of the traffic has
  // completed, so swaps land mid-stream rather than before or after the
  // hammering. The threshold sits one client-round of slack below the
  // clients' own wait boundary, so the publish is always reachable.
  std::thread trainer([&] {
    const size_t slack = static_cast<size_t>(kThreads) * f.queries.size();
    for (int g = 2; g <= SwapFixture::kGenerations; ++g) {
      size_t boundary = (total * static_cast<size_t>(g - 1)) /
                        SwapFixture::kGenerations;
      size_t threshold = boundary > slack ? boundary - slack : 0;
      while (completed.load() < threshold) std::this_thread::yield();
      uint64_t published = service.PublishSnapshot(
          f.variants[static_cast<size_t>(g - 1)]);
      EXPECT_EQ(published, static_cast<uint64_t>(g));
    }
  });

  for (auto& c : clients) c.join();
  trainer.join();

  EXPECT_EQ(bad_gen.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(completed.load(), total);
  EXPECT_EQ(service.CurrentGeneration(),
            static_cast<uint64_t>(SwapFixture::kGenerations));
  // The round-boundary handshake guarantees both the initial and the final
  // generation served real traffic.
  EXPECT_GE(seen_generations.size(), 2u);
  EXPECT_TRUE(seen_generations.count(1) > 0);
  EXPECT_TRUE(
      seen_generations.count(static_cast<uint64_t>(SwapFixture::kGenerations)) >
      0);
}

TEST(ServeSwapTest, SwapInvalidatesCachedResults) {
  SwapFixture& f = Shared();
  EstimationService service(f.variants[0]);
  const workload::Query& q = f.queries[0];

  ServeResult before = service.Estimate(q);
  EXPECT_EQ(before.generation, 1u);
  EXPECT_EQ(before.card, f.expected[0][0]);
  EXPECT_TRUE(service.Estimate(q).cache_hit);

  service.PublishSnapshot(f.variants[1]);
  ServeResult after = service.Estimate(q);
  EXPECT_EQ(after.generation, 2u);
  EXPECT_FALSE(after.cache_hit);  // Generation key change == cold cache.
  EXPECT_EQ(after.card, f.expected[1][0]);
  EXPECT_TRUE(service.Estimate(q).cache_hit);
}

TEST(ServeSwapTest, PublishWhileIdleBumpsGenerationMonotonically) {
  SwapFixture& f = Shared();
  EstimationService service(f.variants[0]);
  EXPECT_EQ(service.CurrentGeneration(), 1u);
  EXPECT_EQ(service.PublishSnapshot(f.variants[1]), 2u);
  EXPECT_EQ(service.PublishSnapshot(f.variants[2]), 3u);
  EXPECT_EQ(service.CurrentGeneration(), 3u);
  EXPECT_EQ(service.Stats().snapshots_published, 2u);
}

// Two controllers (data refresh and query-driven adaptation) publish into one
// service: racing publishers must each get their own generation, a reader
// must never see the generation go back, and the highest generation is the
// snapshot that stays installed.
TEST(ServeSwapTest, RacingPublishersGetDistinctGenerationsAndHighestStays) {
  SwapFixture& f = Shared();
  EstimationService service(f.variants[0]);
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 25;
  constexpr int kPublishes = kPublishers * kPerPublisher;
  // One distinct model object per publish, so the installed one identifies
  // the publish that installed it.
  std::vector<std::shared_ptr<const core::ServableModel>> models;
  for (int i = 0; i < kPublishes; ++i) {
    models.push_back(f.variants[i % SwapFixture::kGenerations]->Clone());
  }
  std::vector<uint64_t> generation_of(kPublishes, 0);

  std::atomic<bool> done{false};
  std::atomic<int> went_back{0};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t g = service.CurrentGeneration();
      if (g < last) went_back.fetch_add(1);
      last = g;
    }
  });
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      for (int i = p * kPerPublisher; i < (p + 1) * kPerPublisher; ++i) {
        generation_of[i] = service.PublishSnapshot(models[i]);
      }
    });
  }
  for (auto& t : publishers) t.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(went_back.load(), 0);
  std::vector<uint64_t> sorted = generation_of;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kPublishes; ++i) {
    EXPECT_EQ(sorted[i], static_cast<uint64_t>(i + 2));
  }
  const auto last = std::find(generation_of.begin(), generation_of.end(),
                              static_cast<uint64_t>(kPublishes + 1));
  ASSERT_NE(last, generation_of.end());
  const auto snap = service.CurrentSnapshot();
  EXPECT_EQ(snap->generation, static_cast<uint64_t>(kPublishes + 1));
  EXPECT_EQ(snap->model, models[last - generation_of.begin()]);
}

TEST(ServeSwapTest, TrainerClonePublishLoopUnderLoad) {
  // End-to-end shape of the intended deployment: the trainer owns a live
  // model, keeps training it, and publishes Clone()s — while clients read.
  SwapFixture& f = Shared();
  auto live = f.variants[0]->Clone();

  EstimationService service(
      std::shared_ptr<const core::Uae>(live->Clone()));
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& q : f.queries) {
          ServeResult res = service.Estimate(q);
          if (res.generation < 1) mismatches.fetch_add(1);
        }
      }
    });
  }

  for (int step = 0; step < 2; ++step) {
    live->TrainDataEpochs(1);
    service.PublishSnapshot(std::shared_ptr<const core::Uae>(live->Clone()));
  }
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.CurrentGeneration(), 3u);
}

}  // namespace
}  // namespace uae::serve
