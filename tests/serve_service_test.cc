// Concurrency hardening of serve::EstimationService: N client threads x M
// queries through the micro-batched service must be bit-identical to the
// sequential Uae::EstimateCard path (PR 1's per-query RNG determinism),
// with the result cache enabled and disabled, across batch compositions.
// Also pins the dispatch policy (no deadline: a lone request runs at once,
// and requests queued behind a running batch share the next one), model
// fault containment, the service's request queue (util::BatchQueue:
// admission policy, backpressure, close) and the sharded LRU cache in
// isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/uae.h"
#include "data/synthetic.h"
#include "serve/result_cache.h"
#include "serve/service.h"
#include "util/batch_queue.h"
#include "util/threadpool.h"
#include "workload/generator.h"

namespace uae::serve {
namespace {

core::UaeConfig SmallConfig() {
  core::UaeConfig cfg;
  cfg.hidden = 32;
  cfg.ps_samples = 64;
  cfg.seed = 19;
  return cfg;
}

struct Fixture {
  data::Table table;
  std::shared_ptr<core::Uae> uae;
  std::vector<workload::Query> queries;
  std::vector<double> sequential;  ///< Reference estimates, one per query.

  Fixture() : table(data::TinyCorrelated(1000, 3)) {
    uae = std::make_shared<core::Uae>(table, SmallConfig());
    uae->TrainDataEpochs(2);
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 41);
    for (const auto& lq : gen.GenerateLabeled(24, nullptr)) {
      queries.push_back(lq.query);
    }
    for (const auto& q : queries) sequential.push_back(uae->EstimateCard(q));
  }
};

Fixture& Shared() {
  static Fixture* f = new Fixture();
  return *f;
}

/// N client threads, each submitting every query `rounds` times in a
/// thread-dependent order; every response must match the sequential
/// reference bitwise.
void HammerAndCheck(EstimationService& service, const Fixture& f,
                    int num_threads, int rounds) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < f.queries.size(); ++i) {
          // Rotate the starting query per thread so concurrent batches mix
          // different compositions.
          size_t qi = (i + static_cast<size_t>(t)) % f.queries.size();
          ServeResult res = service.Estimate(f.queries[qi]);
          if (res.card != f.sequential[qi]) mismatches.fetch_add(1);
          if (res.generation != 1) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeServiceTest, ConcurrentParityWithCache) {
  Fixture& f = Shared();
  ServiceConfig cfg;
  cfg.max_batch = 16;
  EstimationService service(f.uae, cfg);
  HammerAndCheck(service, f, /*num_threads=*/8, /*rounds=*/3);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 8u * 3u * f.queries.size());
  // Every query repeats 24 times across threads/rounds; the cache must have
  // answered some of them.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.batches, 0u);
}

TEST(ServeServiceTest, ConcurrentParityWithoutCache) {
  Fixture& f = Shared();
  ServiceConfig cfg;
  cfg.cache_enabled = false;
  cfg.max_batch = 8;
  EstimationService service(f.uae, cfg);
  HammerAndCheck(service, f, /*num_threads=*/6, /*rounds=*/2);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  // Without a cache every request is model-evaluated (batched or inline).
  EXPECT_EQ(stats.batched_queries + stats.inline_requests, stats.requests);
}

TEST(ServeServiceTest, SingleThreadMatchesSequential) {
  Fixture& f = Shared();
  EstimationService service(f.uae);
  for (size_t i = 0; i < f.queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(service.EstimateCard(f.queries[i]), f.sequential[i]);
  }
}

TEST(ServeServiceTest, CacheHitAndMissPathsAgree) {
  Fixture& f = Shared();
  EstimationService service(f.uae);
  ServeResult first = service.Estimate(f.queries[0]);
  EXPECT_FALSE(first.cache_hit);
  ServeResult second = service.Estimate(f.queries[0]);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.card, second.card);
  EXPECT_EQ(first.generation, second.generation);
}

TEST(ServeServiceTest, AsyncBatchSubmissionMatchesSequential) {
  Fixture& f = Shared();
  ServiceConfig cfg;
  cfg.max_batch = 32;
  EstimationService service(f.uae, cfg);
  std::vector<std::future<ServeResult>> futures;
  for (const auto& q : f.queries) futures.push_back(service.EstimateAsync(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_DOUBLE_EQ(futures[i].get().card, f.sequential[i]);
  }
  // One submitter outpaces the dispatcher: the requests it queues while a
  // batch runs coalesce into the next one.
  EXPECT_GT(service.Stats().max_batch_observed, 1u);
}

TEST(ServeServiceTest, TinyQueueBackpressureStillCorrect) {
  Fixture& f = Shared();
  ServiceConfig cfg;
  cfg.queue_capacity = 2;  // Forces Push to block and batches to stay small.
  cfg.max_batch = 4;
  EstimationService service(f.uae, cfg);
  HammerAndCheck(service, f, /*num_threads=*/4, /*rounds=*/1);
}

// ---- Stats under adaptation -----------------------------------------------

TEST(ServeServiceTest, PerGenerationCountersReconcileAcrossSwap) {
  Fixture& f = Shared();
  EstimationService service(f.uae);
  // Client-side tally of which generation answered each request; the service's
  // per-generation counters must agree exactly.
  std::map<uint64_t, uint64_t> client_tally;
  for (size_t i = 0; i < 12; ++i) {
    client_tally[service.Estimate(f.queries[i]).generation]++;
  }
  service.PublishSnapshot(std::shared_ptr<const core::Uae>(f.uae->Clone()));
  for (size_t i = 0; i < f.queries.size(); ++i) {
    client_tally[service.Estimate(f.queries[i]).generation]++;
  }
  std::map<uint64_t, uint64_t> service_tally;
  for (const auto& [gen, count] : service.AnsweredByGeneration()) {
    service_tally[gen] = count;
  }
  EXPECT_EQ(service_tally, client_tally);
  EXPECT_EQ(service.AnsweredForGeneration(1), 12u);
  EXPECT_EQ(service.AnsweredForGeneration(2), f.queries.size());
  EXPECT_EQ(service.AnsweredForGeneration(99), 0u);
}

TEST(ServeServiceTest, ConcurrentPerGenerationCountersCoverEveryRequest) {
  Fixture& f = Shared();
  EstimationService service(f.uae);
  constexpr int kThreads = 6, kRounds = 2;
  std::atomic<uint64_t> client_total{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (const auto& q : f.queries) {
          (void)service.Estimate(q);
          client_total.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  // Every response is attributed to exactly one generation.
  uint64_t answered = 0;
  for (const auto& [gen, count] : service.AnsweredByGeneration()) answered += count;
  EXPECT_EQ(answered, client_total.load());
  EXPECT_EQ(answered, service.Stats().requests);
}

TEST(ServeServiceTest, CacheStatsReconcileWithServiceCounters) {
  Fixture& f = Shared();
  ServiceConfig cfg;
  cfg.cache.capacity = 8;  // Small enough to force evictions over 24 queries.
  cfg.cache.shards = 1;
  EstimationService service(f.uae, cfg);
  for (int round = 0; round < 3; ++round) {
    for (const auto& q : f.queries) (void)service.Estimate(q);
  }
  ServiceStats stats = service.Stats();
  ResultCacheStats cache = service.CacheStats();
  // Every service-level cache hit is a cache-level hit; the cache may see
  // extra lookups (batch-side re-checks), all accounted as misses.
  EXPECT_EQ(stats.cache_hits, cache.hits);
  EXPECT_GE(cache.misses, stats.requests - stats.cache_hits);
  // Model evaluations insert; insertions beyond capacity evict.
  EXPECT_GE(cache.insertions, cache.evictions);
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_LE(service.CacheStats().insertions - service.CacheStats().evictions,
            cfg.cache.capacity);
  // Eager generation eviction is visible through the same counter.
  uint64_t before = service.CacheStats().evictions;
  service.PublishSnapshot(std::shared_ptr<const core::Uae>(f.uae->Clone()));
  EXPECT_GT(service.CacheStats().evictions, before);
}

TEST(ServeServiceTest, QueueLatencyAndDepthObservability) {
  Fixture& f = Shared();
  ServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_enabled = false;  // Force every request through the queue.
  EstimationService service(f.uae, cfg);
  for (size_t i = 0; i < 3; ++i) {
    (void)service.Estimate(f.queries[i % f.queries.size()]);
  }
  LatencySnapshot lat = service.QueueLatency();
  EXPECT_GE(lat.count, 3u);  // Every queued request's wait was recorded.
  EXPECT_GE(lat.p99_us, lat.p50_us);
  EXPECT_GE(static_cast<double>(lat.max_us) * 1.125, lat.p99_us);
  EXPECT_EQ(service.QueueDepth(), 0u);  // Blocking calls leave the queue idle.
}

// ---- Dispatch policy and model faults -------------------------------------
// A stand-in model that costs nothing: it answers CodeQuery(c) with c,
// single-table or join, and throws on kFaultCode.
constexpr int32_t kFaultCode = 99;
constexpr char kFaultMessage[] = "stub model fault";

workload::Query CodeQuery(int32_t code) {
  workload::Query query(1);
  workload::Constraint& c = query.mutable_constraint(0);
  c.kind = workload::Constraint::Kind::kRange;
  c.lo = c.hi = code;
  return query;
}

class StubModel : public core::ServableModel {
 public:
  double EstimateCard(const workload::Query& query) const override {
    const int32_t code = query.constraint(0).lo;
    if (code == kFaultCode) throw std::runtime_error(kFaultMessage);
    return static_cast<double>(code);
  }
  bool SupportsJoinQueries() const override { return true; }
  double EstimateJoinCard(const workload::JoinQuery& query) const override {
    return EstimateCard(query.pred);
  }
  std::vector<double> EstimateJoinCards(
      std::span<const workload::JoinQuery> queries) const override {
    std::vector<double> cards;
    for (const workload::JoinQuery& q : queries) {
      cards.push_back(EstimateJoinCard(q));
    }
    return cards;
  }
  size_t SizeBytes() const override { return 0; }
  size_t num_rows() const override { return 1000; }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<StubModel>();
  }
};

/// A StubModel whose EstimateCards records each call's size and holds its
/// first call until Open() (for at most 10 s, so a failed test cannot hang).
class GatedStubModel : public StubModel {
 public:
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override {
    std::unique_lock<std::mutex> lock(mu_);
    sizes_.push_back(queries.size());
    if (sizes_.size() == 1) {
      entered_ = true;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(10), [this] { return open_; });
    }
    lock.unlock();
    return StubModel::EstimateCards(queries);
  }
  /// Waits (at most 10 s) until the first EstimateCards call is held.
  bool WaitEntered() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::vector<size_t> sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sizes_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<size_t> sizes_;
  mutable bool entered_ = false;
  bool open_ = false;
};

/// Expects `future` to rethrow the stub model's fault. It reads through a
/// shared_future, which holds the shared state, and so the exception, until
/// the catch has read it: std::future::get() drops its state while
/// unwinding, and the exception's reference count lives in the uninstrumented
/// C++ runtime, so TSan would take the dispatcher's later release of its
/// promise for a race with that read.
void ExpectFault(std::future<ServeResult> future) {
  const std::shared_future<ServeResult> shared = future.share();
  try {
    (void)shared.get();
    ADD_FAILURE() << "the model's exception did not reach the future";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), kFaultMessage);
  }
}

uint64_t TotalAnswered(const EstimationService& service) {
  uint64_t answered = 0;
  for (const auto& [gen, count] : service.AnsweredByGeneration()) {
    answered += count;
  }
  return answered;
}

TEST(ServeServiceTest, LoneRequestIsNotHeldForCompany) {
  // A free dispatcher runs a lone request at once instead of waiting for
  // others to share its batch. The model costs nothing and the cache is off,
  // so each round trip is queueing and thread handoff alone.
  ServiceConfig cfg;
  cfg.cache_enabled = false;
  EstimationService service(std::make_shared<StubModel>(), cfg);
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int32_t code = 1; code <= 32; ++code) {
    const auto start = std::chrono::steady_clock::now();
    const ServeResult result = service.Estimate(CodeQuery(code));
    fastest = std::min(fastest, std::chrono::steady_clock::now() - start);
    EXPECT_EQ(result.card, static_cast<double>(code));
  }
  EXPECT_EQ(service.Stats().batches, 32u);
  EXPECT_LT(fastest, std::chrono::microseconds(200));
}

TEST(ServeServiceTest, RequestsQueuedWhileABatchRunsShareTheNextBatch) {
  // Batches form from the requests that arrive while the dispatcher is busy:
  // A runs alone, and B1-B5, queued while A's model call is held, make up
  // the next batch together.
  auto model = std::make_shared<GatedStubModel>();
  ServiceConfig cfg;
  cfg.cache_enabled = false;
  EstimationService service(model, cfg);
  std::vector<std::future<ServeResult>> futures;
  futures.push_back(service.EstimateAsync(CodeQuery(1)));
  ASSERT_TRUE(model->WaitEntered());
  for (int32_t code = 2; code <= 6; ++code) {
    futures.push_back(service.EstimateAsync(CodeQuery(code)));
  }
  model->Open();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().card, static_cast<double>(i + 1));
  }
  EXPECT_EQ(model->sizes(), (std::vector<size_t>{1, 5}));
}

TEST(ServeServiceTest, ModelExceptionFailsItsRequestsAndServingContinues) {
  EstimationService service(std::make_shared<StubModel>());
  const workload::Query fault = CodeQuery(kFaultCode);

  // Queued: each failed call's future rethrows, and the dispatcher lives on.
  ExpectFault(service.EstimateAsync(fault));
  ExpectFault(service.EstimateJoinAsync({/*table_mask=*/1, fault}));
  const ServeResult good = service.Estimate(CodeQuery(1));
  EXPECT_EQ(good.card, 1.0);
  EXPECT_EQ(good.generation, 1u);
  EXPECT_EQ(service.EstimateJoin({/*table_mask=*/1, CodeQuery(1)}).card, 1.0);
  // Not cached: the fault query reaches the model, and throws, again.
  ExpectFault(service.EstimateAsync(fault));

  // Inline, from a pool worker: EstimateAsync returns and its future rethrows.
  std::future<ServeResult> inline_future;
  bool submit_threw = false;
  util::GlobalPool().Submit([&] {
    try {
      inline_future = service.EstimateAsync(fault);
    } catch (...) {
      submit_threw = true;
    }
  });
  util::GlobalPool().Wait();
  EXPECT_FALSE(submit_threw);
  ExpectFault(std::move(inline_future));

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.inline_requests, 1u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(service.AnsweredForGeneration(1), 2u);
  EXPECT_EQ(TotalAnswered(service) + stats.failed, stats.requests);
}

TEST(ServeServiceTest, FailedCallLeavesTheRestOfItsBatchStanding) {
  // One batch, three outcomes: the single-table call throws and fails both
  // of its requests, while the batch's join call and its cache hit stand.
  auto model = std::make_shared<GatedStubModel>();
  EstimationService service(model);
  std::future<ServeResult> first = service.EstimateAsync(CodeQuery(1));
  ASSERT_TRUE(model->WaitEntered());
  std::future<ServeResult> fault = service.EstimateAsync(CodeQuery(kFaultCode));
  std::future<ServeResult> sharer = service.EstimateAsync(CodeQuery(2));
  std::future<ServeResult> join =
      service.EstimateJoinAsync({/*table_mask=*/1, CodeQuery(3)});
  std::future<ServeResult> repeat = service.EstimateAsync(CodeQuery(1));
  model->Open();

  EXPECT_EQ(first.get().card, 1.0);
  ExpectFault(std::move(fault));
  ExpectFault(std::move(sharer));
  EXPECT_EQ(join.get().card, 3.0);
  const ServeResult hit = repeat.get();
  EXPECT_EQ(hit.card, 1.0);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(model->sizes(), (std::vector<size_t>{1, 2}));

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(service.AnsweredForGeneration(1), 3u);
  EXPECT_EQ(TotalAnswered(service) + stats.failed, stats.requests);
}

// ---- Request-queue unit coverage -------------------------------------------
// The service's own queue type. The suite keeps the name of the micro-batcher
// this queue replaced.
using RequestQueue = util::BatchQueue<EstimateRequest>;

TEST(MicroBatcherTest, CoalescesUpToMaxBatch) {
  RequestQueue batcher(/*queue_capacity=*/64, /*max_batch=*/4,
                       std::chrono::microseconds(50'000));
  for (int i = 0; i < 6; ++i) {
    EstimateRequest req;
    req.fingerprint = static_cast<uint64_t>(i);
    ASSERT_TRUE(batcher.Push(std::move(req)));
  }
  std::vector<EstimateRequest> first = batcher.PopBatch();
  EXPECT_EQ(first.size(), 4u);  // Capped at max_batch.
  EXPECT_EQ(first[0].fingerprint, 0u);  // FIFO order.
  std::vector<EstimateRequest> second = batcher.PopBatch();
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].fingerprint, 4u);
}

TEST(MicroBatcherTest, DeadlineFlushesPartialBatch) {
  RequestQueue batcher(/*queue_capacity=*/64, /*max_batch=*/1000,
                       std::chrono::microseconds(2'000));
  EstimateRequest req;
  ASSERT_TRUE(batcher.Push(std::move(req)));
  auto start = std::chrono::steady_clock::now();
  std::vector<EstimateRequest> batch = batcher.PopBatch();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  // Must flush at the deadline, far before any "wait for 1000 requests".
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(MicroBatcherTest, DeadlineAnchorsAtArrivalNotDispatcherWakeup) {
  // Regression: the admission deadline used to be anchored at dispatcher
  // wake-up (`now() + max_wait` inside PopBatch). With a dispatcher that
  // lags behind Push — busy running the previous batch — a request could
  // wait its queue time PLUS a full max_wait, up to ~2x the configured
  // bound. The deadline is now anchored at the oldest queued request's
  // arrival: if max_wait already elapsed in the queue, PopBatch must flush
  // immediately instead of parking for another max_wait.
  constexpr auto kMaxWait = std::chrono::microseconds(200'000);
  RequestQueue batcher(/*queue_capacity=*/64, /*max_batch=*/1000, kMaxWait);
  EstimateRequest req;
  ASSERT_TRUE(batcher.Push(std::move(req)));
  // Deliberately delayed dispatcher: the request ages past max_wait.
  std::this_thread::sleep_for(kMaxWait + std::chrono::microseconds(20'000));
  auto start = std::chrono::steady_clock::now();
  std::vector<EstimateRequest> batch = batcher.PopBatch();
  auto parked = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  // Pre-fix this parked for the full 200ms max_wait; post-fix the deadline
  // is already expired and the flush is immediate. Half max_wait keeps the
  // margin symmetric against scheduler noise.
  EXPECT_LT(parked, kMaxWait / 2);
}

TEST(MicroBatcherTest, DepthAndOldestWaitTrackQueue) {
  RequestQueue batcher(/*queue_capacity=*/64, /*max_batch=*/4,
                       std::chrono::microseconds(100'000));
  EXPECT_EQ(batcher.Depth(), 0u);
  EXPECT_EQ(batcher.OldestWaitMicros(), 0u);
  for (int i = 0; i < 3; ++i) {
    EstimateRequest req;
    ASSERT_TRUE(batcher.Push(std::move(req)));
  }
  EXPECT_EQ(batcher.Depth(), 3u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(batcher.OldestWaitMicros(), 1'000u);  // Aged at least a little.
  EXPECT_EQ(batcher.PopBatch().size(), 3u);
  EXPECT_EQ(batcher.Depth(), 0u);
  EXPECT_EQ(batcher.OldestWaitMicros(), 0u);
}

TEST(MicroBatcherTest, CloseDrainsAndUnblocks) {
  RequestQueue batcher(/*queue_capacity=*/8, /*max_batch=*/4,
                       std::chrono::microseconds(100));
  EstimateRequest req;
  ASSERT_TRUE(batcher.Push(std::move(req)));
  batcher.Close();
  EXPECT_EQ(batcher.PopBatch().size(), 1u);  // Queued work still drains.
  EXPECT_TRUE(batcher.PopBatch().empty());   // Then reports closed.
  EstimateRequest late;
  EXPECT_FALSE(batcher.Push(std::move(late)));
}

TEST(MicroBatcherTest, LeftoverAfterFullBatchKeepsItsArrivalDeadline) {
  // A full batch leaves an item behind. Its deadline is still its own
  // arrival + max_wait, not the moment the full batch was popped: once it has
  // aged past max_wait, the next PopBatch flushes it without parking.
  constexpr auto kMaxWait = std::chrono::microseconds(200'000);
  RequestQueue batcher(/*queue_capacity=*/64, /*max_batch=*/2, kMaxWait);
  for (int i = 0; i < 3; ++i) {
    EstimateRequest req;
    ASSERT_TRUE(batcher.Push(std::move(req)));
  }
  std::this_thread::sleep_for(kMaxWait + std::chrono::microseconds(20'000));
  EXPECT_EQ(batcher.PopBatch().size(), 2u);
  auto start = std::chrono::steady_clock::now();
  std::vector<EstimateRequest> leftover = batcher.PopBatch();
  auto parked = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(leftover.size(), 1u);
  EXPECT_LT(parked, kMaxWait / 2);
}

TEST(MicroBatcherTest, AdmittedCountsOnlyAcceptedPushes) {
  RequestQueue batcher(/*queue_capacity=*/8, /*max_batch=*/4,
                       std::chrono::microseconds(100));
  EXPECT_EQ(batcher.Admitted(), 0u);
  for (int i = 0; i < 2; ++i) {
    EstimateRequest req;
    ASSERT_TRUE(batcher.Push(std::move(req)));
  }
  EXPECT_EQ(batcher.PopBatch().size(), 2u);
  EXPECT_EQ(batcher.Admitted(), 2u);  // Popping does not uncount.
  batcher.Close();
  EstimateRequest late;
  EXPECT_FALSE(batcher.Push(std::move(late)));
  EXPECT_EQ(batcher.Admitted(), 2u);
}

// ---- ResultCache unit coverage --------------------------------------------

TEST(ResultCacheTest, GenerationIsPartOfTheKey) {
  ResultCache cache(ResultCacheConfig{.capacity = 64, .shards = 4});
  cache.Insert(/*fingerprint=*/7, /*generation=*/1, 100.0);
  EXPECT_TRUE(cache.Lookup(7, 1).has_value());
  EXPECT_FALSE(cache.Lookup(7, 2).has_value());  // Swap == implicit miss.
  cache.Insert(7, 2, 200.0);
  EXPECT_EQ(cache.Lookup(7, 1).value(), 100.0);
  EXPECT_EQ(cache.Lookup(7, 2).value(), 200.0);
}

TEST(ResultCacheTest, LruEvictsColdEntries) {
  // One shard so the LRU order is fully observable.
  ResultCache cache(ResultCacheConfig{.capacity = 4, .shards = 1});
  for (uint64_t fp = 0; fp < 4; ++fp) cache.Insert(fp, 1, static_cast<double>(fp));
  ASSERT_EQ(cache.Size(), 4u);
  cache.Lookup(0, 1);   // Touch 0 -> most recent; 1 is now the LRU tail.
  cache.Insert(9, 1, 9.0);
  EXPECT_TRUE(cache.Lookup(0, 1).has_value());
  EXPECT_FALSE(cache.Lookup(1, 1).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
}

TEST(ResultCacheTest, EvictBelowGenerationDropsStaleOnly) {
  ResultCache cache(ResultCacheConfig{.capacity = 64, .shards = 4});
  for (uint64_t fp = 0; fp < 8; ++fp) cache.Insert(fp, 1, 1.0);
  for (uint64_t fp = 0; fp < 8; ++fp) cache.Insert(fp, 2, 2.0);
  cache.EvictBelowGeneration(2);
  EXPECT_EQ(cache.Size(), 8u);
  for (uint64_t fp = 0; fp < 8; ++fp) {
    EXPECT_FALSE(cache.Lookup(fp, 1).has_value());
    EXPECT_TRUE(cache.Lookup(fp, 2).has_value());
  }
}

TEST(ResultCacheTest, ConcurrentMixedWorkloadIsConsistent) {
  ResultCache cache(ResultCacheConfig{.capacity = 256, .shards = 8});
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        uint64_t fp = static_cast<uint64_t>((i * 7 + t) % 512);
        double expect = static_cast<double>(fp) * 3.0;
        if (auto v = cache.Lookup(fp, 1)) {
          if (*v != expect) wrong.fetch_add(1);
        } else {
          cache.Insert(fp, 1, expect);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace uae::serve
