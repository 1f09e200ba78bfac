#include "online/controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "util/quantiles.h"
#include "util/stopwatch.h"
#include "workload/metrics.h"

namespace uae::online {

const char* AdaptOutcomeName(AdaptOutcome outcome) {
  switch (outcome) {
    case AdaptOutcome::kSkippedNoDrift:
      return "skipped-no-drift";
    case AdaptOutcome::kSkippedStaleSignal:
      return "skipped-stale-signal";
    case AdaptOutcome::kSkippedNoFeedback:
      return "skipped-no-feedback";
    case AdaptOutcome::kSkippedBusy:
      return "skipped-busy";
    case AdaptOutcome::kSkippedUnusableFeedback:
      return "skipped-unusable-feedback";
    case AdaptOutcome::kRejectedByGuard:
      return "rejected-by-guard";
    case AdaptOutcome::kPublished:
      return "published";
  }
  return "?";
}

GuardVerdict EvaluateCandidate(const core::ServableModel& incumbent,
                               const core::ServableModel& candidate,
                               const workload::Workload& holdout,
                               double guard_max_ratio) {
  GuardVerdict verdict;
  if (holdout.empty()) return verdict;  // Nothing proven => no swap.
  std::vector<double> incumbent_errors = workload::EvaluateQErrorsBatched(
      holdout, [&](std::span<const workload::Query> qs) {
        return incumbent.EstimateCards(qs);
      });
  bool all_finite = true;
  std::vector<double> candidate_errors = workload::EvaluateQErrorsBatched(
      holdout, [&](std::span<const workload::Query> qs) {
        std::vector<double> cards = candidate.EstimateCards(qs);
        all_finite = std::all_of(cards.begin(), cards.end(),
                                 [](double c) { return std::isfinite(c); });
        return cards;
      });
  verdict.incumbent_median = util::Quantile(std::move(incumbent_errors), 0.5);
  verdict.candidate_median = util::Quantile(std::move(candidate_errors), 0.5);
  // A NaN or inf answer refuses the candidate even when its median holds.
  verdict.accept = all_finite && verdict.candidate_median <=
                                     verdict.incumbent_median * guard_max_ratio;
  return verdict;
}

AdaptationController::AdaptationController(serve::EstimationService* service,
                                           FeedbackCollector* collector,
                                           DriftMonitor* monitor,
                                           const AdaptationConfig& config)
    : service_(service), collector_(collector), monitor_(monitor),
      config_(config),
      loop_(std::chrono::milliseconds(config.period_ms),
            [this] { AdaptIfDrifted(); }) {
  UAE_CHECK(service_ != nullptr);
  UAE_CHECK(collector_ != nullptr);
  UAE_CHECK(monitor_ != nullptr);
  UAE_CHECK_GE(config_.holdout_fraction, 0.0);
  UAE_CHECK_LE(config_.holdout_fraction, 1.0);
}

void AdaptationController::OnFeedback(const workload::Query& query,
                                      const serve::ServeResult& served,
                                      double true_card) {
  double q_error = workload::QError(served.card, true_card);
  monitor_->Observe(served.generation, q_error);
  collector_->Add({query, true_card, served.card, served.generation});
}

AdaptationResult AdaptationController::AdaptIfDrifted() {
  AdaptationResult result;
  DriftReport report = monitor_->Check();
  if (!report.fired) {
    result.outcome = AdaptOutcome::kSkippedNoDrift;
    RecordOutcome(result);
    return result;
  }
  // A report about a superseded generation is noise left over from before the
  // last swap: the new snapshot deserves fresh evidence first.
  if (report.generation != service_->CurrentGeneration()) {
    result.outcome = AdaptOutcome::kSkippedStaleSignal;
    RecordOutcome(result);
    return result;
  }
  return AdaptNow();
}

AdaptationResult AdaptationController::AdaptNow() {
  std::unique_lock<std::mutex> lock(adapt_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    AdaptationResult result;
    result.outcome = AdaptOutcome::kSkippedBusy;
    RecordOutcome(result);
    return result;
  }
  return RunAdaptation(std::move(lock));
}

AdaptationResult AdaptationController::RunAdaptation(
    std::unique_lock<std::mutex> adapt_lock) {
  util::Stopwatch timer;
  AdaptationResult result;
  if (collector_->Size() < config_.min_feedback) {
    result.outcome = AdaptOutcome::kSkippedNoFeedback;
    RecordOutcome(result);
    return result;
  }

  // The incumbent: everything below trains/evaluates against this one
  // snapshot even if other publishers race (max-concurrent-finetune = 1
  // makes that impossible for adaptations, but direct PublishSnapshot calls
  // are still allowed).
  std::shared_ptr<const serve::ModelSnapshot> snap = service_->CurrentSnapshot();
  std::vector<FeedbackEntry> entries = collector_->Drain();
  workload::Workload all = ToWorkload(entries, snap->model->num_rows());
  workload::Workload train, holdout;
  // Seeded by (controller, model, generation): deterministic for a given
  // deployment, decorrelated across deployments and across successive swaps.
  workload::SplitWorkload(all, config_.holdout_fraction,
                          config_.split_seed ^ snap->model->seed() ^
                              snap->generation,
                          &train, &holdout);
  result.train_size = train.size();
  result.holdout_size = holdout.size();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.attempts;
  }

  // Fine-tune a clone; the served snapshot keeps answering traffic untouched.
  // FineTune routes by model kind: a monolithic Uae trains on the whole
  // slice, a ShardedServable refits only the shards the feedback targets. The
  // clone is paid before routability is known — an unroutable slice wastes
  // one parameter copy, as a guard rejection wastes one fine-tune.
  std::shared_ptr<core::ServableModel> candidate = snap->model->CloneServable();
  core::FineTuneSpec spec;
  spec.query_steps = config_.finetune_steps;
  spec.hybrid_epochs = config_.hybrid_epochs;
  result.finetuned_size = candidate->FineTune(train, spec);
  if (config_.finetune_hook) config_.finetune_hook();

  // A non-empty slice that trained on nothing (all feedback unroutable for
  // this model kind) leaves the candidate bit-identical: publishing would
  // bump the generation and flush the result cache without repairing
  // anything. Skip; the drained feedback goes back like a guard rejection.
  if (!train.empty() && result.finetuned_size == 0) {
    result.outcome = AdaptOutcome::kSkippedUnusableFeedback;
    for (FeedbackEntry& entry : entries) collector_->Add(std::move(entry));
    result.seconds = timer.ElapsedSeconds();
    RecordOutcome(result);
    adapt_lock.unlock();
    return result;
  }

  GuardVerdict verdict = EvaluateCandidate(*snap->model, *candidate, holdout,
                                           config_.guard_max_ratio);
  result.incumbent_median = verdict.incumbent_median;
  result.candidate_median = verdict.candidate_median;
  if (verdict.accept) {
    result.generation = service_->PublishSnapshot(std::move(candidate));
    result.outcome = AdaptOutcome::kPublished;
  } else {
    result.outcome = AdaptOutcome::kRejectedByGuard;
    // The labels were expensive (one exact scan each) and the drift is still
    // unresolved: put drained feedback back so the next attempt does not have
    // to re-accumulate from zero. Entries re-enter the sliding window after
    // whatever arrived during the fine-tune.
    for (FeedbackEntry& entry : entries) collector_->Add(std::move(entry));
  }
  result.seconds = timer.ElapsedSeconds();
  RecordOutcome(result);
  adapt_lock.unlock();
  return result;
}

void AdaptationController::RecordOutcome(const AdaptationResult& result) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  switch (result.outcome) {
    case AdaptOutcome::kPublished:
      ++stats_.published;
      stats_.last_published_generation = result.generation;
      break;
    case AdaptOutcome::kRejectedByGuard:
      ++stats_.rejected;
      break;
    default:
      ++stats_.skipped;
      break;
  }
}

AdaptationStats AdaptationController::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace uae::online
