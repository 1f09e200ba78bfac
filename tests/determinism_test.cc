// Deterministic-seed regressions: the same util::Rng seed must produce
// bit-identical ProgressiveSample and SampleTuples results across repeated
// runs, and batched parallel estimation must not depend on the thread count
// or on how the pool schedules chunks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/progressive.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "util/threadpool.h"
#include "workload/generator.h"

namespace uae::core {
namespace {

UaeConfig SmallConfig() {
  UaeConfig cfg;
  cfg.hidden = 32;
  cfg.ps_samples = 96;
  cfg.seed = 23;
  return cfg;
}

struct Fixture {
  data::Table table;
  Uae uae;
  std::vector<workload::Query> queries;

  Fixture() : table(data::TinyCorrelated(1200, 3)), uae(table, SmallConfig()) {
    uae.TrainDataEpochs(2);
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 31);
    for (const auto& lq : gen.GenerateLabeled(20, nullptr)) {
      queries.push_back(lq.query);
    }
  }
};

Fixture& Shared() {
  static Fixture* f = new Fixture();
  return *f;
}

TEST(DeterminismTest, ProgressiveSampleBitIdenticalAcrossRuns) {
  Fixture& f = Shared();
  for (const auto& q : f.queries) {
    QueryTargets targets = BuildTargets(q, f.table, f.uae.schema());
    util::Rng rng_a(91);
    util::Rng rng_b(91);
    double a = ProgressiveSample(f.uae.model(), targets, 64, &rng_a);
    double b = ProgressiveSample(f.uae.model(), targets, 64, &rng_b);
    EXPECT_DOUBLE_EQ(a, b);
  }
}

TEST(DeterminismTest, ProgressiveSampleWithErrorBitIdenticalAcrossRuns) {
  Fixture& f = Shared();
  QueryTargets targets = BuildTargets(f.queries[0], f.table, f.uae.schema());
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  PsEstimate a = ProgressiveSampleWithError(f.uae.model(), targets, 64, &rng_a);
  PsEstimate b = ProgressiveSampleWithError(f.uae.model(), targets, 64, &rng_b);
  EXPECT_DOUBLE_EQ(a.selectivity, b.selectivity);
  EXPECT_DOUBLE_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(DeterminismTest, SampleTuplesBitIdenticalAcrossRuns) {
  Fixture& f = Shared();
  util::Rng rng_a(77);
  util::Rng rng_b(77);
  auto a = SampleTuples(f.uae.model(), 50, &rng_a);
  auto b = SampleTuples(f.uae.model(), 50, &rng_b);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Fixture& f = Shared();
  util::Rng rng_a(1);
  util::Rng rng_b(2);
  auto a = SampleTuples(f.uae.model(), 50, &rng_a);
  auto b = SampleTuples(f.uae.model(), 50, &rng_b);
  EXPECT_NE(a, b);
}

TEST(DeterminismTest, BatchedEstimatesIndependentOfThreadCount) {
  Fixture& f = Shared();
  // Sequential reference.
  std::vector<double> sequential;
  for (const auto& q : f.queries) sequential.push_back(f.uae.EstimateCard(q));
  // The batched path fans across the global pool (whatever its size); it must
  // reproduce the sequential estimates bit for bit, run after run.
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> batched = f.uae.EstimateCards(f.queries);
    ASSERT_EQ(batched.size(), sequential.size());
    for (size_t i = 0; i < batched.size(); ++i) {
      EXPECT_DOUBLE_EQ(batched[i], sequential[i]) << "query " << i;
    }
  }
}

// Counts ParallelFor chunks running at once. Enter() waits, up to
// `patience`, until a second chunk has been seen running, so a call that fans
// out records a peak of at least 2 and one that ran its chunks one at a time
// records 1.
class Overlap {
 public:
  void Enter(std::chrono::milliseconds patience) {
    const int now = running_.fetch_add(1) + 1;
    int seen = peak_.load();
    while (seen < now && !peak_.compare_exchange_weak(seen, now)) {
    }
    const auto deadline = std::chrono::steady_clock::now() + patience;
    while (peak_.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    running_.fetch_sub(1);
  }
  int peak() const { return peak_.load(); }

 private:
  std::atomic<int> running_{0};
  std::atomic<int> peak_{0};
};

constexpr std::chrono::milliseconds kOverlapPatience{500};

TEST(DeterminismTest, ParallelForProgressesWhileEveryWorkerIsBusy) {
  // The caller claims chunks itself, so a call whose helpers queue behind
  // busy workers still finishes: it never waits on a chunk nobody runs.
  util::ThreadPool& pool = util::GlobalPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs a multi-threaded pool";
  std::mutex mu;
  std::condition_variable cv;
  size_t parked = 0;
  bool open = false;
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&] { return open; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == pool.num_threads(); });
  }
  std::atomic<int> cells{0};
  std::promise<void> returned;
  std::future<void> call = returned.get_future();
  std::thread caller([&] {
    util::ParallelFor(
        0, 8,
        [&](size_t lo, size_t hi) { cells.fetch_add(static_cast<int>(hi - lo)); },
        /*min_parallel_size=*/1);
    returned.set_value();
  });
  const bool in_time =
      call.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  caller.join();
  pool.Wait();
  EXPECT_TRUE(in_time) << "ParallelFor waited on workers that were all busy";
  EXPECT_EQ(cells.load(), 8);
}

TEST(DeterminismTest, ParallelForRunsASingleChunkOnTheCaller) {
  // Eight indices at a grain of eight make one chunk: no pool handoff.
  util::ThreadPool& pool = util::GlobalPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs a multi-threaded pool";
  const std::thread::id me = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  std::vector<std::pair<size_t, size_t>> ranges;
  util::ParallelFor(
      0, 8,
      [&](size_t lo, size_t hi) {
        ran_on.push_back(std::this_thread::get_id());
        ranges.emplace_back(lo, hi);
      },
      /*min_parallel_size=*/8);
  pool.Wait();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(size_t{0}, size_t{8}));
  EXPECT_EQ(ran_on[0], me);
}

TEST(DeterminismTest, NestedParallelForFansOut) {
  // A ParallelFor called from a pool worker (a shard's wave fan-out inside
  // the shards' own fan-out) submits helpers like any caller, so its chunks
  // run side by side. It cannot deadlock: a caller only ever waits on chunks
  // that are already running. A third level, from whichever thread runs a
  // chunk, must still write every cell.
  util::ThreadPool& pool = util::GlobalPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs a multi-threaded pool";
  Overlap overlap;
  std::vector<int> out(32, 0);
  pool.Submit([&] {
    util::ParallelFor(
        0, 4,
        [&](size_t lo, size_t hi) {
          overlap.Enter(kOverlapPatience);
          for (size_t i = lo; i < hi; ++i) {
            util::ParallelFor(
                0, 8,
                [&](size_t jlo, size_t jhi) {
                  for (size_t j = jlo; j < jhi; ++j) out[i * 8 + j] = 1;
                },
                /*min_parallel_size=*/1);
          }
        },
        /*min_parallel_size=*/1);
  });
  pool.Wait();
  EXPECT_GE(overlap.peak(), 2);
  for (int v : out) EXPECT_EQ(v, 1);
}

TEST(DeterminismTest, ParallelForRethrowsAfterEveryChunkFinished) {
  // A throwing chunk must not unwind the caller while other chunks still run
  // `body` from its frame: the exception waits for every claimed chunk.
  util::ThreadPool& pool = util::GlobalPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs a multi-threaded pool";
  std::vector<int> marks(8, 0);
  size_t first_hi = 0;
  EXPECT_THROW(util::ParallelFor(
                   0, marks.size(),
                   [&](size_t lo, size_t hi) {
                     if (lo == 0) {
                       first_hi = hi;
                       throw std::runtime_error("chunk 0");
                     }
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     for (size_t i = lo; i < hi; ++i) marks[i] = 1;
                   },
                   /*min_parallel_size=*/1),
               std::runtime_error);
  pool.Wait();
  ASSERT_GT(first_hi, 0u);
  ASSERT_LT(first_hi, marks.size()) << "the call made a single chunk";
  for (size_t i = first_hi; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i], 1) << "index " << i;
  }
}

TEST(DeterminismTest, ParallelForFromForeignPoolWorkerFansOut) {
  // A worker of a *different* pool (the serving dispatcher pattern) calling
  // ParallelFor must fan the chunks out over the global pool, not serialize
  // them: two chunks are seen running at once. Had the call run inline, its
  // one body call would never see a second.
  util::ThreadPool& pool = util::GlobalPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs a multi-threaded pool";
  util::ThreadPool foreign(1);
  Overlap overlap;
  std::atomic<int> cells{0};
  foreign.Submit([&] {
    util::ParallelFor(
        0, 8,
        [&](size_t lo, size_t hi) {
          overlap.Enter(kOverlapPatience);
          cells.fetch_add(static_cast<int>(hi - lo));
        },
        /*min_parallel_size=*/1);
  });
  foreign.Wait();
  pool.Wait();
  EXPECT_EQ(cells.load(), 8);
  EXPECT_GE(overlap.peak(), 2);
}

TEST(DeterminismTest, ServiceRequestsFromPoolWorkersDoNotDeadlock) {
  // An estimator callback running inside ParallelFor that submits to the
  // service is answered inline, not parked on a service future: a parked
  // pool worker is one thread fewer for the dispatcher's own fan-out. This
  // hammers exactly that path.
  Fixture& f = Shared();
  auto model = std::shared_ptr<const Uae>(f.uae.Clone());
  serve::ServiceConfig cfg;
  cfg.max_batch = 4;
  serve::EstimationService service(model, cfg);

  std::vector<double> sequential;
  for (const auto& q : f.queries) sequential.push_back(model->EstimateCard(q));

  std::vector<double> served(f.queries.size(), 0.0);
  util::ParallelFor(
      0, f.queries.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          served[i] = service.Estimate(f.queries[i]).card;
        }
      },
      /*min_parallel_size=*/1);

  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_DOUBLE_EQ(served[i], sequential[i]) << "query " << i;
  }
  // From inside the pool the service must have answered on the calling
  // threads (inline) rather than through the dispatcher queue.
  if (util::GlobalPool().num_threads() > 1) {
    EXPECT_GT(service.Stats().inline_requests, 0u);
  }
}

TEST(DeterminismTest, WavefrontServiceTrafficFromPoolWorkersDoesNotDeadlock) {
  // Wavefront regression for the PR 3 inline-answer rule: the batched
  // EstimateCards path now advances all micro-batched queries through shared
  // wavefront forwards, whose wave fan-out itself calls ParallelFor. Pool
  // workers submitting to the service must still be answered inline (a
  // nested fan-out of theirs claims its own chunks, so it parks nobody), the
  // dispatcher's wavefront fan-out must still spread over the global pool,
  // and every answer must stay the bitwise-pure function of (model, query).
  Fixture& f = Shared();
  auto model = std::shared_ptr<const Uae>(f.uae.Clone());
  serve::ServiceConfig cfg;
  // The only queued client is one blocking thread, so each of its batches
  // holds one request; the waves batch over that query's samples.
  cfg.max_batch = 8;
  serve::EstimationService service(model, cfg);

  std::vector<double> sequential;
  for (const auto& q : f.queries) sequential.push_back(model->EstimateCard(q));

  std::atomic<int> mismatches{0};
  // Outside threads exercise the queued micro-batch -> wavefront path while
  // pool workers exercise the inline path, concurrently.
  std::thread outside([&] {
    for (int r = 0; r < 2; ++r) {
      for (size_t i = 0; i < f.queries.size(); ++i) {
        if (service.Estimate(f.queries[i]).card != sequential[i]) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  util::ParallelFor(
      0, f.queries.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (service.Estimate(f.queries[i]).card != sequential[i]) {
            mismatches.fetch_add(1);
          }
        }
      },
      /*min_parallel_size=*/1);
  outside.join();
  EXPECT_EQ(mismatches.load(), 0);

  // And the raw batched entry point agrees with the served answers bit for
  // bit: service traffic and direct wavefront calls are the same estimates.
  std::vector<double> batched = f.uae.EstimateCards(f.queries);
  ASSERT_EQ(batched.size(), sequential.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    double cloned = model->EstimateCards(
        std::span<const workload::Query>(&f.queries[i], 1))[0];
    EXPECT_DOUBLE_EQ(batched[i], sequential[i]) << "query " << i;
    EXPECT_DOUBLE_EQ(cloned, sequential[i]) << "query " << i;
  }
}

TEST(DeterminismTest, MixedInlineAndQueuedTrafficStaysDeterministic) {
  // Plain client threads (queued + micro-batched) racing pool-worker callers
  // (inline) against one service: every answer must still be the pure
  // function of (model, query).
  Fixture& f = Shared();
  auto model = std::shared_ptr<const Uae>(f.uae.Clone());
  serve::EstimationService service(model);

  std::vector<double> sequential;
  for (const auto& q : f.queries) sequential.push_back(model->EstimateCard(q));

  std::atomic<int> mismatches{0};
  std::thread outside([&] {
    for (int r = 0; r < 3; ++r) {
      for (size_t i = 0; i < f.queries.size(); ++i) {
        if (service.Estimate(f.queries[i]).card != sequential[i]) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  util::ParallelFor(
      0, f.queries.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          if (service.Estimate(f.queries[i]).card != sequential[i]) {
            mismatches.fetch_add(1);
          }
        }
      },
      /*min_parallel_size=*/1);
  outside.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace uae::core
