// ingest/ under concurrency (the TSan suite): multi-producer appends racing
// serving traffic through EstimationService, background staleness-driven
// refreshes hot-swapping generations mid-stream, readers pinning the live
// table against compaction — the full streaming stack exercised the way the
// bench drives it. Assertions are deliberately coarse (counts and liveness);
// the point is the interleavings TSan observes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "ingest/refresh.h"
#include "serve/service.h"
#include "shard/sharded_uae.h"
#include "workload/generator.h"

namespace uae::ingest {
namespace {

core::UaeConfig TinyConfig() {
  core::UaeConfig c;
  c.hidden = 8;
  c.ps_samples = 16;
  c.data_batch = 64;
  c.seed = 5;
  return c;
}

TEST(IngestConcurrentTest, ProducersServingRefreshAndCompactionRace) {
  data::Table table = data::SyntheticDmv(1500, 11);
  shard::ShardedUaeConfig sc;
  sc.base = TinyConfig();
  sc.partition.num_shards = 2;
  auto model = std::make_shared<shard::ShardedUae>(table, sc);
  model->TrainDataEpochs(1);
  serve::EstimationService service(model);

  IngestConfig ic;
  ic.max_batch = 32;
  ic.compact_min_delta = 256;  // Force compactions during the run.
  IngestService ingest(&table, &model->partitioner(), ic);

  RefreshConfig rc;
  rc.staleness.trigger_rows = 128;
  rc.data_epochs = 1;
  rc.period_ms = 5;
  RefreshController ctrl(&ingest, &service, model, rc);
  ctrl.Start();

  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, 77);
  std::vector<workload::Query> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(gen.Generate());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};

  // Snapshot the replay stream up front: producers model an EXTERNAL source,
  // and unpinned live-row reads are off-contract once compaction can run.
  std::vector<std::vector<int32_t>> replay;
  for (size_t r = 0; r < 1500; ++r) replay.push_back(table.RowCodes(r));

  // Two producers streaming replayed rows.
  std::vector<std::thread> workers;
  for (int p = 0; p < 2; ++p) {
    workers.emplace_back([&, p] {
      for (int i = 0; i < 400; ++i) {
        if (!ingest.AppendCodes(
                replay[static_cast<size_t>(p * 31 + i) % 1500])) {
          break;
        }
      }
    });
  }
  // Two serving clients hammering the service across hot-swaps.
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&] {
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        serve::ServeResult r = service.Estimate(queries[i++ % queries.size()]);
        EXPECT_GE(r.card, 0.0);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // A reader repeatedly pinning the table and scanning recent rows (what the
  // bench's labeling pass does), racing appends and compaction.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto pin = ingest.PinTable();
      const size_t n = table.num_rows();
      size_t sum = 0;
      for (size_t r = n > 64 ? n - 64 : 0; r < n; ++r) {
        sum += static_cast<size_t>(table.column(0).code_at(r));
      }
      EXPECT_GE(sum + 1, 1u);
    }
  });

  workers[0].join();
  workers[1].join();
  ingest.Flush();
  // Stop the poller, then run one uncontended cycle so at least one refresh
  // certainly happened even on a machine where the poll never fired.
  ctrl.Stop();
  ctrl.RefreshShards({});
  stop.store(true, std::memory_order_release);
  for (size_t i = 2; i < workers.size(); ++i) workers[i].join();
  ingest.Close();

  EXPECT_EQ(table.num_rows(), 1500u + 800u);
  EXPECT_EQ(ingest.stats().rows_appended, 800u);
  EXPECT_GT(served.load(), 0u);
  // Refreshes published: the served generation moved past the initial one.
  EXPECT_GT(service.CurrentGeneration(), 1u);
  // Every streamed row is accounted for in exactly one shard buffer.
  size_t routed = 0;
  for (int s = 0; s < ingest.num_shards(); ++s) {
    routed += ingest.shard_buffer(s).size();
  }
  EXPECT_EQ(routed, 800u);
}

TEST(IngestConcurrentTest, FlushIsABarrierUnderContention) {
  data::Table table = data::SyntheticDmv(500, 3);
  shard::PartitionConfig pc;
  pc.num_shards = 2;
  shard::HorizontalPartitioner part(table, pc);
  IngestConfig ic;
  ic.queue_capacity = 64;  // Small queue: exercise backpressure.
  ic.max_batch = 16;
  IngestService svc(&table, &part, ic);

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&svc, &table, p] {
      for (int i = 0; i < 200; ++i) {
        EXPECT_TRUE(svc.AppendCodes(
            table.RowCodes(static_cast<size_t>(p + i) % 500)));
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.Flush();
  EXPECT_EQ(table.num_rows(), 500u + 800u);
  EXPECT_EQ(svc.stats().rows_appended, 800u);
}

TEST(IngestConcurrentTest, FlushCoversTheCallersRowsWhileOthersKeepAppending) {
  // The test above joins every producer before it flushes. Here the flushing
  // producer's rows are interleaved with three producers that are still
  // appending when Flush() runs and after it returns.
  data::Table table = data::SyntheticDmv(500, 3);
  shard::PartitionConfig pc;
  pc.num_shards = 2;
  shard::HorizontalPartitioner part(table, pc);
  IngestConfig ic;
  ic.queue_capacity = 64;
  ic.max_batch = 16;
  IngestService svc(&table, &part, ic);

  // The flushing producer appends copies of one marker row, which no other
  // producer appends, so counting it counts exactly the flusher's rows.
  const std::vector<int32_t> marker = table.RowCodes(0);
  std::vector<std::vector<int32_t>> others;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<int32_t> row = table.RowCodes(r);
    if (row != marker) others.push_back(std::move(row));
  }
  ASSERT_FALSE(others.empty());
  auto count_markers = [&] {
    auto pin = svc.PinTable();
    const size_t n = table.num_rows();
    size_t count = 0;
    for (size_t r = 0; r < n; ++r) {
      if (table.RowCodes(r) == marker) ++count;
    }
    return count;
  };
  const size_t base_markers = count_markers();

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; !stop.load(std::memory_order_acquire); ++i) {
        if (!svc.AppendCodes(others[i % others.size()])) break;
      }
    });
  }
  constexpr size_t kMarkers = 300;
  for (size_t i = 0; i < kMarkers; ++i) {
    EXPECT_TRUE(svc.AppendCodes(marker));
  }
  svc.Flush();
  EXPECT_EQ(count_markers(), base_markers + kMarkers);

  stop.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
}

}  // namespace
}  // namespace uae::ingest
