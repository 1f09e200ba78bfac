// online/controller: trigger plumbing (drift / stale-signal / feedback
// floor), the Start()ed poll, the max-concurrent-finetune=1 rail, and — the
// load-bearing guarantee — the regression guard provably refusing a worse
// candidate.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/uae.h"
#include "data/synthetic.h"
#include "online/controller.h"
#include "serve/service.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace uae::online {
namespace {

core::UaeConfig SmallConfig(uint64_t seed = 23) {
  core::UaeConfig cfg;
  cfg.hidden = 32;
  cfg.ps_samples = 64;
  cfg.seed = seed;
  return cfg;
}

/// Labeled easy queries (1-3 filters) over `table`.
workload::Workload LabeledQueries(const data::Table& table, size_t count,
                                  uint64_t seed) {
  workload::GeneratorConfig gc;
  gc.min_filters = 1;
  gc.max_filters = 3;
  workload::QueryGenerator gen(table, gc, seed);
  return gen.GenerateLabeled(count, nullptr);
}

struct Fixture {
  data::Table table;
  std::shared_ptr<core::Uae> trained;  ///< The healthy incumbent.

  Fixture() : table(data::TinyCorrelated(1000, 3)) {
    trained = std::make_shared<core::Uae>(table, SmallConfig());
    trained->TrainDataEpochs(3);
  }
};

Fixture& Shared() {
  static Fixture* f = new Fixture();
  return *f;
}

// ---- Regression guard ------------------------------------------------------

TEST(RegressionGuardTest, RefusesProvablyWorseCandidate) {
  Fixture& f = Shared();
  // Label the holdout with the incumbent's own estimates: its median q-error
  // is then exactly 1.0 — the attainable minimum — so ANY candidate whose
  // estimates differ is provably worse and must be refused. Queries with
  // estimates comfortably above the q-error floor of 1 row keep a diverging
  // candidate from being floored into a tie.
  workload::Workload holdout;
  for (auto& lq : LabeledQueries(f.table, 48, 7)) {
    double est = f.trained->EstimateCard(lq.query);
    if (est < 4.0) continue;
    lq.card = est;
    holdout.push_back(lq);
  }
  ASSERT_GE(holdout.size(), 8u);
  core::Uae different(f.table, SmallConfig(/*seed=*/99));  // Never trained.
  GuardVerdict verdict =
      EvaluateCandidate(*f.trained, different, holdout, /*guard_max_ratio=*/1.0);
  EXPECT_FALSE(verdict.accept);
  EXPECT_DOUBLE_EQ(verdict.incumbent_median, 1.0);
  EXPECT_GT(verdict.candidate_median, 1.0);
}

TEST(RegressionGuardTest, AcceptsEqualCandidateAndClones) {
  Fixture& f = Shared();
  workload::Workload holdout = LabeledQueries(f.table, 16, 9);
  // A model is never worse than itself ...
  GuardVerdict self = EvaluateCandidate(*f.trained, *f.trained, holdout, 1.0);
  EXPECT_TRUE(self.accept);
  EXPECT_DOUBLE_EQ(self.candidate_median, self.incumbent_median);
  // ... and a Clone() is bit-identical at clone time (PR 3), so it ties.
  std::unique_ptr<core::Uae> clone = f.trained->Clone();
  GuardVerdict cloned = EvaluateCandidate(*f.trained, *clone, holdout, 1.0);
  EXPECT_TRUE(cloned.accept);
  EXPECT_DOUBLE_EQ(cloned.candidate_median, cloned.incumbent_median);
}

/// Answers like `inner` except NaN on the query with fingerprint `poisoned`.
class PoisonedServable : public core::ServableModel {
 public:
  PoisonedServable(std::shared_ptr<const core::ServableModel> inner,
                   uint64_t poisoned)
      : inner_(std::move(inner)), poisoned_(poisoned) {}
  double EstimateCard(const workload::Query& query) const override {
    if (query.Fingerprint() == poisoned_) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return inner_->EstimateCard(query);
  }
  size_t SizeBytes() const override { return inner_->SizeBytes(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<PoisonedServable>(*this);
  }

 private:
  std::shared_ptr<const core::ServableModel> inner_;
  uint64_t poisoned_;
};

TEST(RegressionGuardTest, RefusesCandidateWithNonFiniteEstimates) {
  Fixture& f = Shared();
  // Labelled with the incumbent's own estimates, so both medians are 1.0:
  // one NaN answer out of 16 does not move the candidate's median.
  workload::Workload holdout = LabeledQueries(f.table, 16, 9);
  for (auto& lq : holdout) lq.card = f.trained->EstimateCard(lq.query);
  PoisonedServable candidate(f.trained, holdout[3].query.Fingerprint());
  GuardVerdict verdict = EvaluateCandidate(*f.trained, candidate, holdout, 1.0);
  EXPECT_DOUBLE_EQ(verdict.incumbent_median, 1.0);
  EXPECT_DOUBLE_EQ(verdict.candidate_median, 1.0);
  EXPECT_FALSE(verdict.accept);
}

TEST(RegressionGuardTest, EmptyHoldoutRejects) {
  Fixture& f = Shared();
  GuardVerdict verdict = EvaluateCandidate(*f.trained, *f.trained, {}, 1.0);
  EXPECT_FALSE(verdict.accept);  // Nothing proven => no swap.
}

// ---- Controller paths ------------------------------------------------------

/// Routes `count` labeled queries through the service as feedback, with the
/// true cardinality scaled by `truth_scale` (1.0 = honest labels; big values
/// fake a drifted/degraded stream).
void Feed(serve::EstimationService& service, AdaptationController& controller,
          const workload::Workload& queries, double truth_scale = 1.0) {
  for (const auto& lq : queries) {
    serve::ServeResult res = service.Estimate(lq.query);
    // truth_scale=1 reports the honest label; larger scales inflate the truth
    // (with a floor, so zero-card queries still register a big q-error).
    controller.OnFeedback(lq.query, res,
                          lq.card * truth_scale + (truth_scale - 1.0));
  }
}

AdaptationConfig FastConfig() {
  AdaptationConfig cfg;
  cfg.finetune_steps = 4;
  cfg.min_feedback = 8;
  cfg.holdout_fraction = 0.25;
  cfg.guard_max_ratio = 100.0;  // Accept-friendly; guard tested separately.
  return cfg;
}

TEST(AdaptationControllerTest, SkipsWithoutDriftOrFeedback) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationController controller(&service, &collector, &monitor, FastConfig());

  EXPECT_EQ(controller.AdaptIfDrifted().outcome, AdaptOutcome::kSkippedNoDrift);
  EXPECT_EQ(controller.AdaptNow().outcome, AdaptOutcome::kSkippedNoFeedback);
  EXPECT_EQ(service.CurrentGeneration(), 1u);
  EXPECT_EQ(controller.Stats().skipped, 2u);
  EXPECT_EQ(controller.Stats().attempts, 0u);
}

TEST(AdaptationControllerTest, DriftTriggersPublish) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationController controller(&service, &collector, &monitor, FastConfig());

  // Mislabeled truth (x20) makes the served estimates look terrible.
  Feed(service, controller, LabeledQueries(f.table, 16, 11), /*truth_scale=*/20.0);
  ASSERT_TRUE(monitor.Check().fired);

  AdaptationResult result = controller.AdaptIfDrifted();
  EXPECT_EQ(result.outcome, AdaptOutcome::kPublished);
  EXPECT_EQ(result.generation, 2u);
  EXPECT_EQ(service.CurrentGeneration(), 2u);
  EXPECT_GT(result.train_size, 0u);
  EXPECT_GT(result.holdout_size, 0u);
  EXPECT_EQ(controller.Stats().published, 1u);
  EXPECT_EQ(controller.Stats().last_published_generation, 2u);
  // Drain-on-adapt consumed the buffer.
  EXPECT_EQ(collector.Size(), 0u);
}

TEST(AdaptationControllerTest, StartedLoopPublishesOnDrift) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationConfig cfg = FastConfig();
  cfg.period_ms = 5;
  AdaptationController controller(&service, &collector, &monitor, cfg);

  Feed(service, controller, LabeledQueries(f.table, 16, 11), /*truth_scale=*/20.0);
  ASSERT_TRUE(monitor.Check().fired);
  controller.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.CurrentGeneration() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.CurrentGeneration(), 2u) << "the started loop never adapted";
  controller.Stop();
  // The drift report now names a superseded generation: no second publish.
  EXPECT_EQ(service.CurrentGeneration(), 2u);
  EXPECT_EQ(controller.Stats().published, 1u);
  EXPECT_EQ(controller.Stats().last_published_generation, 2u);
}

TEST(AdaptationControllerTest, GuardRefusalKeepsIncumbentServing) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationConfig cfg = FastConfig();
  // q-errors are >= 1, so requiring candidate_median <= incumbent_median * 0
  // makes every candidate provably unacceptable: the controller must refuse
  // to publish no matter what fine-tuning produced.
  cfg.guard_max_ratio = 0.0;
  AdaptationController controller(&service, &collector, &monitor, cfg);

  Feed(service, controller, LabeledQueries(f.table, 16, 13), /*truth_scale=*/20.0);
  AdaptationResult result = controller.AdaptIfDrifted();
  EXPECT_EQ(result.outcome, AdaptOutcome::kRejectedByGuard);
  EXPECT_EQ(service.CurrentGeneration(), 1u);  // Incumbent survives.
  EXPECT_EQ(controller.Stats().rejected, 1u);
  EXPECT_EQ(controller.Stats().published, 0u);
  // The expensively-labeled feedback is re-inserted, not discarded: the next
  // attempt does not start from an empty buffer.
  EXPECT_EQ(collector.Size(), 16u);
}

TEST(AdaptationControllerTest, StaleDriftSignalIsIgnored) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationController controller(&service, &collector, &monitor, FastConfig());

  Feed(service, controller, LabeledQueries(f.table, 16, 17), /*truth_scale=*/20.0);
  ASSERT_TRUE(monitor.Check().fired);
  // Someone else already swapped the model: the drift report describes the
  // dethroned generation and must not trigger a fine-tune.
  service.PublishSnapshot(f.trained);
  EXPECT_EQ(controller.AdaptIfDrifted().outcome, AdaptOutcome::kSkippedStaleSignal);
  EXPECT_EQ(controller.Stats().attempts, 0u);
}

TEST(AdaptationControllerTest, SecondAdaptationSkipsWhileOneIsInFlight) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector({.capacity = 4096});
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationConfig cfg = FastConfig();
  // Deterministic handshake (1-core safe): the first adaptation parks inside
  // the lock-held hook until the second one has bounced off the try-lock.
  std::promise<void> in_flight;
  std::promise<void> release;
  cfg.finetune_hook = [&] {
    in_flight.set_value();
    release.get_future().wait();
  };
  AdaptationController controller(&service, &collector, &monitor, cfg);

  Feed(service, controller, LabeledQueries(f.table, 16, 25), /*truth_scale=*/20.0);
  std::thread first([&] {
    EXPECT_EQ(controller.AdaptNow().outcome, AdaptOutcome::kPublished);
  });
  in_flight.get_future().wait();  // First attempt holds the adaptation lock.
  EXPECT_EQ(controller.AdaptNow().outcome, AdaptOutcome::kSkippedBusy);
  release.set_value();
  first.join();
  EXPECT_EQ(controller.Stats().published, 1u);
  EXPECT_EQ(controller.Stats().attempts, 1u);
}

TEST(AdaptationControllerTest, HybridFinetuneModePublishes) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 8, .median_threshold = 3.0});
  AdaptationConfig cfg = FastConfig();
  cfg.hybrid_epochs = 1;  // Alg. 3 (data + query) instead of pure UAE-Q.
  AdaptationController controller(&service, &collector, &monitor, cfg);

  Feed(service, controller, LabeledQueries(f.table, 16, 27), /*truth_scale=*/20.0);
  AdaptationResult result = controller.AdaptIfDrifted();
  EXPECT_EQ(result.outcome, AdaptOutcome::kPublished);
  EXPECT_EQ(service.CurrentGeneration(), 2u);
}

TEST(AdaptationControllerTest, OnFeedbackRoutesToCollectorAndMonitor) {
  Fixture& f = Shared();
  serve::EstimationService service(f.trained);
  FeedbackCollector collector;
  DriftMonitor monitor({.window = 64, .min_samples = 2, .median_threshold = 3.0});
  AdaptationController controller(&service, &collector, &monitor, FastConfig());

  workload::Query q(f.table.num_cols());
  q.AddPredicate({0, workload::Op::kLe, 2, {}}, f.table.column(0).domain());
  serve::ServeResult res = service.Estimate(q);
  controller.OnFeedback(q, res, /*true_card=*/res.card * 8.0 + 1.0);
  EXPECT_EQ(collector.Size(), 1u);
  EXPECT_EQ(monitor.TotalObserved(), 1u);
  EXPECT_GT(monitor.SummaryForGeneration(res.generation).median, 3.0);
  std::vector<FeedbackEntry> entries = collector.Snapshot();
  EXPECT_DOUBLE_EQ(entries[0].estimated_card, res.card);
  EXPECT_EQ(entries[0].generation, res.generation);
}

}  // namespace
}  // namespace uae::online
