// Sharded models behind the serving + online-adaptation layers: hot-swapping
// a sharded snapshot is generation-atomic (a response is never a mix of
// two snapshots' shard parameters), concurrent clients see bitwise-attributable
// results, and the adaptation controller fine-tunes per shard through the
// ServableModel interface.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "online/controller.h"
#include "online/drift.h"
#include "online/feedback.h"
#include "serve/service.h"
#include "shard/sharded_uae.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace uae::shard {
namespace {

core::UaeConfig SmallConfig() {
  core::UaeConfig c;
  c.hidden = 12;
  c.ps_samples = 32;
  c.data_batch = 128;
  c.seed = 5;
  return c;
}

struct Fixture {
  data::Table table = data::SyntheticDmv(1200, 41);
  std::shared_ptr<ShardedUae> model;
  std::vector<workload::Query> queries;

  explicit Fixture(int shards = 3) {
    ShardedUaeConfig sc;
    sc.base = SmallConfig();
    sc.partition.num_shards = shards;
    model = std::make_shared<ShardedUae>(table, sc);
    model->TrainDataEpochs(1);
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 51);
    for (int i = 0; i < 24; ++i) queries.push_back(gen.Generate());
  }
};

TEST(ShardServeTest, ServiceAnswersBitwiseEqualToDirectEstimates) {
  Fixture f;
  serve::EstimationService service(f.model);
  for (const workload::Query& q : f.queries) {
    serve::ServeResult res = service.Estimate(q);
    EXPECT_EQ(res.generation, 1u);
    EXPECT_DOUBLE_EQ(res.card, f.model->EstimateCard(q));
  }
}

TEST(ShardServeTest, HotSwapUnderConcurrentLoadIsGenerationAtomic) {
  Fixture f;
  // Two published variants: the initial model and a fine-tuned clone. Every
  // response's card must equal the serving generation's own estimate.
  std::shared_ptr<ShardedServable> tuned = [&] {
    std::unique_ptr<ShardedServable> clone = f.model->Clone();
    workload::Workload feedback;
    const HorizontalPartitioner& part = clone->partitioner();
    const int pcol = part.partition_col();
    const int32_t domain = f.table.column(pcol).domain();
    for (int32_t code = 0; code < domain && feedback.size() < 16; code += 7) {
      workload::LabeledQuery lq;
      lq.query = workload::Query(f.table.num_cols());
      lq.query.AddPredicate({pcol, workload::Op::kEq, code, {}}, domain);
      lq.card = static_cast<double>(workload::ExecuteCount(f.table, lq.query));
      feedback.push_back(lq);
    }
    core::FineTuneSpec spec;
    spec.query_steps = 4;
    clone->FineTune(feedback, spec);
    return std::shared_ptr<ShardedServable>(std::move(clone));
  }();

  serve::ServiceConfig cfg;
  cfg.cache_enabled = false;  // Force every request through a live model.
  serve::EstimationService service(f.model, cfg);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  auto client = [&](int tid) {
    size_t i = static_cast<size_t>(tid);
    while (!stop.load(std::memory_order_relaxed)) {
      const workload::Query& q = f.queries[i % f.queries.size()];
      serve::ServeResult res = service.Estimate(q);
      const ShardedServable& expect = res.generation == 1 ? *f.model : *tuned;
      if (res.card != expect.EstimateCard(q)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      ++i;
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) clients.emplace_back(client, t);
  // Let traffic hit generation 1, swap mid-flight, let it hit generation 2.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(service.PublishSnapshot(tuned), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_EQ(mismatches.load(), 0u);
  uint64_t answered = 0;
  for (const auto& [gen, count] : service.AnsweredByGeneration()) {
    EXPECT_TRUE(gen == 1 || gen == 2);
    answered += count;
  }
  EXPECT_EQ(answered, service.Stats().requests);
}

TEST(ShardServeTest, UnroutableFeedbackSkipsPublishInsteadOfNoOpSwap) {
  Fixture f;
  serve::EstimationService service(f.model);
  online::FeedbackCollector collector;
  online::DriftConfig dc;
  dc.min_samples = 4;
  dc.window = 64;
  dc.median_threshold = 1.0;
  online::DriftMonitor monitor(dc);
  online::AdaptationConfig ac;
  ac.min_feedback = 4;
  ac.holdout_fraction = 0.0;  // Everything lands in the (unroutable) train slice.
  online::AdaptationController controller(&service, &collector, &monitor, ac);

  // Feedback with NO constraint on the partition column: every query fans out
  // to all shards, so ShardedServable::FineTune can attribute none of it.
  const int pcol = f.model->partitioner().partition_col();
  const int other = pcol == 0 ? 1 : 0;
  for (int i = 0; i < 12; ++i) {
    workload::Query q(f.table.num_cols());
    q.AddPredicate({other, workload::Op::kLe,
                    static_cast<int32_t>(i % f.table.column(other).domain()), {}},
                   f.table.column(other).domain());
    serve::ServeResult res = service.Estimate(q);
    double truth = static_cast<double>(workload::ExecuteCount(f.table, q));
    controller.OnFeedback(q, res, truth);
  }

  online::AdaptationResult result = controller.AdaptNow();
  EXPECT_EQ(result.outcome, online::AdaptOutcome::kSkippedUnusableFeedback)
      << online::AdaptOutcomeName(result.outcome);
  EXPECT_EQ(result.finetuned_size, 0u);
  // No no-op hot-swap: the generation (and with it the result cache) stays.
  EXPECT_EQ(service.CurrentGeneration(), 1u);
  // The drained feedback went back into the buffer for a future attempt.
  EXPECT_EQ(collector.Size(), 12u);
}

TEST(ShardServeTest, ControllerFineTunesShardedSnapshotThroughTheLoop) {
  Fixture f;
  serve::EstimationService service(f.model);
  online::FeedbackConfig fc;
  fc.capacity = 256;
  online::FeedbackCollector collector(fc);
  online::DriftConfig dc;
  dc.min_samples = 8;
  dc.window = 128;
  dc.median_threshold = 1.0;  // Fire easily: estimates are imperfect.
  online::DriftMonitor monitor(dc);
  online::AdaptationConfig ac;
  ac.min_feedback = 8;
  ac.finetune_steps = 4;
  ac.guard_max_ratio = 10.0;  // Accept near-anything: this is a plumbing test.
  online::AdaptationController controller(&service, &collector, &monitor, ac);

  // Feedback on partition-targeted queries so FineTune routes per shard.
  const HorizontalPartitioner& part = f.model->partitioner();
  const int pcol = part.partition_col();
  const int32_t domain = f.table.column(pcol).domain();
  for (int32_t code = 0; code < domain && code < 64; code += 2) {
    workload::Query q(f.table.num_cols());
    q.AddPredicate({pcol, workload::Op::kEq, code, {}}, domain);
    serve::ServeResult res = service.Estimate(q);
    double truth = static_cast<double>(workload::ExecuteCount(f.table, q));
    controller.OnFeedback(q, res, truth);
  }

  online::AdaptationResult result = controller.AdaptIfDrifted();
  ASSERT_EQ(result.outcome, online::AdaptOutcome::kPublished)
      << online::AdaptOutcomeName(result.outcome);
  EXPECT_EQ(service.CurrentGeneration(), 2u);
  // The published snapshot is a sharded clone: same shard layout.
  auto snap = service.CurrentSnapshot();
  const auto* published =
      dynamic_cast<const ShardedServable*>(snap->model.get());
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->num_shards(), f.model->num_shards());
  // And serving continues bitwise-consistently on the new generation.
  for (const workload::Query& q : f.queries) {
    serve::ServeResult res = service.Estimate(q);
    EXPECT_EQ(res.generation, 2u);
    EXPECT_DOUBLE_EQ(res.card, published->EstimateCard(q));
  }
}

}  // namespace
}  // namespace uae::shard
