// AdaptationController — closes the loop: serve -> feedback -> drift ->
// fine-tune -> hot-swap.
//
// On trigger (DriftMonitor fires on the currently served generation) or on
// demand, the controller drains a labeled mini-workload from the
// FeedbackCollector, splits it into a fine-tune slice and a held-out slice
// (deterministic seeded split), clones the incumbent snapshot, runs
// ServableModel::FineTune on the clone — the UAE-Q refinement of §4.5 for a
// monolithic Uae; per-shard routed fine-tuning for a ShardedServable, so drift
// localized to one partition refits only that shard's model — and publishes
// the candidate through EstimationService::PublishSnapshot.
//
// Safety rails:
//   * regression guard — the candidate is evaluated against the incumbent on
//     the held-out feedback slice; a candidate whose median q-error is worse
//     (beyond `guard_max_ratio`) is rejected, so a bad fine-tune can never
//     dethrone a healthy model;
//   * max-concurrent-finetune = 1 — a try-lock serializes adaptations; a
//     second trigger while one is in flight is skipped, not queued;
//   * stale-signal suppression — a drift report describing a generation that
//     is no longer the served one is ignored, so a published candidate is
//     judged on fresh evidence before the loop adapts again.
//
// Start()/Stop() poll AdaptIfDrifted() on a util::BackgroundLoop (the
// autonomous mode); AdaptIfDrifted()/AdaptNow() are the synchronous building
// blocks and are what deterministic tests drive directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "core/servable.h"
#include "online/drift.h"
#include "online/feedback.h"
#include "serve/service.h"
#include "util/background_loop.h"

namespace uae::online {

struct AdaptationConfig {
  int finetune_steps = 80;        ///< TrainQuerySteps on the drained slice.
  /// When > 0, fine-tune with TrainHybridEpochs (L_data + lambda * L_query,
  /// Alg. 3) for this many epochs instead of pure UAE-Q steps — slower, but
  /// anchors the candidate to the data distribution (less forgetting).
  int hybrid_epochs = 0;
  double holdout_fraction = 0.25; ///< Feedback held out for the guard.
  size_t min_feedback = 64;       ///< Don't adapt below this many entries.
  /// Reject the candidate when its held-out median q-error exceeds the
  /// incumbent's times this factor (1.0 = "must not be worse at all").
  double guard_max_ratio = 1.0;
  uint64_t period_ms = 100;       ///< Background trigger-poll period.
  uint64_t split_seed = 7;        ///< Train/holdout shuffle seed.
  /// Test seam: runs after fine-tuning, before the guard, while the
  /// adaptation lock is held (lets tests pin an adaptation in flight).
  std::function<void()> finetune_hook;
};

enum class AdaptOutcome {
  kSkippedNoDrift,       ///< Monitor did not fire.
  kSkippedStaleSignal,   ///< Fired on a generation no longer being served.
  kSkippedNoFeedback,    ///< Buffer below min_feedback.
  kSkippedBusy,          ///< Another fine-tune is in flight.
  /// FineTune could not use any of the training slice (e.g. every feedback
  /// query spans shards of a ShardedServable): the candidate is
  /// bit-identical to the incumbent, so publishing it would only flush the
  /// result cache.
  kSkippedUnusableFeedback,
  kRejectedByGuard,      ///< Candidate was worse on the held-out slice.
  kPublished,            ///< Candidate accepted and hot-swapped.
};

const char* AdaptOutcomeName(AdaptOutcome outcome);

/// Everything one adaptation attempt decided and measured.
struct AdaptationResult {
  AdaptOutcome outcome = AdaptOutcome::kSkippedNoDrift;
  uint64_t generation = 0;         ///< Published generation (kPublished only).
  double incumbent_median = 0.0;   ///< Held-out median q-error of the incumbent.
  double candidate_median = 0.0;   ///< ... and of the fine-tuned candidate.
  size_t train_size = 0;
  /// Queries of the training slice FineTune actually used (< train_size when
  /// a sharded model dropped shard-spanning feedback).
  size_t finetuned_size = 0;
  size_t holdout_size = 0;
  double seconds = 0.0;            ///< Wall time of the attempt.
};

struct AdaptationStats {
  uint64_t attempts = 0;   ///< Adaptations that reached fine-tuning.
  uint64_t published = 0;
  uint64_t rejected = 0;   ///< Guard refusals.
  uint64_t skipped = 0;    ///< Any kSkipped* outcome.
  uint64_t last_published_generation = 0;
};

/// The regression guard, standalone and testable: batched-evaluates both
/// models on the held-out slice and accepts the candidate iff every one of
/// its estimates is finite and
///   candidate_median <= incumbent_median * guard_max_ratio.
/// An empty holdout rejects (nothing proven means no swap).
struct GuardVerdict {
  bool accept = false;
  double incumbent_median = 0.0;
  double candidate_median = 0.0;
};
GuardVerdict EvaluateCandidate(const core::ServableModel& incumbent,
                               const core::ServableModel& candidate,
                               const workload::Workload& holdout,
                               double guard_max_ratio);

class AdaptationController {
 public:
  /// All dependencies outlive the controller; it owns only its poll loop.
  AdaptationController(serve::EstimationService* service,
                       FeedbackCollector* collector, DriftMonitor* monitor,
                       const AdaptationConfig& config = {});
  UAE_DISALLOW_COPY(AdaptationController);

  /// Feedback entry point: records the ground truth observed for a served
  /// estimate into the collector and the drift monitor.
  void OnFeedback(const workload::Query& query, const serve::ServeResult& served,
                  double true_card);

  /// Checks the trigger conditions (drift fired on the served generation,
  /// enough feedback) and adapts when they hold.
  AdaptationResult AdaptIfDrifted();

  /// Unconditional adaptation attempt (still subject to min_feedback, the
  /// busy try-lock, and the regression guard).
  AdaptationResult AdaptNow();

  /// Autonomous mode: polls AdaptIfDrifted() every `period_ms` on a
  /// background thread until Stop() (idempotent; the destructor stops too).
  void Start() { loop_.Start(); }
  void Stop() { loop_.Stop(); }
  bool running() const { return loop_.running(); }

  AdaptationStats Stats() const;
  const AdaptationConfig& config() const { return config_; }

 private:
  AdaptationResult RunAdaptation(std::unique_lock<std::mutex> adapt_lock);
  void RecordOutcome(const AdaptationResult& result);

  serve::EstimationService* service_;
  FeedbackCollector* collector_;
  DriftMonitor* monitor_;
  const AdaptationConfig config_;

  std::mutex adapt_mu_;  ///< max-concurrent-finetune = 1 (try_lock).
  mutable std::mutex stats_mu_;  ///< Guards stats_.
  AdaptationStats stats_;

  /// Declared last, so it is destroyed first: the thread is joined before
  /// any member its tick touches goes away.
  util::BackgroundLoop loop_;
};

}  // namespace uae::online
