// Cardinality providers: per-estimator sources of sub-plan cardinalities
// injected into the mini optimizer — the experimental design of §5.6 / [13]
// (external estimates injected into the planner).
//
// Two deployment shapes:
//   * Direct (UaeCardProvider): the planner holds the model and calls
//     EstimateJoinCard itself — single-threaded, one plan at a time.
//   * Served (ServedCardProvider): sub-plan estimates go through a
//     serve::EstimationService, so concurrent planner threads coalesce into
//     shared micro-batches, share the generation-keyed result cache, and
//     transparently pick up hot-swapped (fine-tuned or refreshed) snapshots.
//     An optional SubplanMemo short-circuits sub-plans whose true
//     cardinality has already been observed from executed plans.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "core/uae.h"
#include "data/imdb_star.h"
#include "estimators/histogram.h"
#include "optimizer/subplan_memo.h"
#include "serve/service.h"
#include "workload/join_workload.h"

namespace uae::optimizer {

/// Cardinality of the query restricted to `submask` (a subset of the query's
/// joined tables). Implementations memoize per (query, submask).
///
/// Thread-safety is per implementation: TrueCardProvider / UaeCardProvider /
/// AviCardProvider keep unsynchronized memo maps and serve ONE planner
/// thread; ServedCardProvider is safe to share across planner threads.
class JoinCardProvider {
 public:
  virtual ~JoinCardProvider() = default;
  virtual std::string name() const = 0;
  /// Cardinality estimate for RestrictToSubset(query, submask).
  virtual double Card(const workload::JoinQuery& query, uint32_t submask) = 0;
  /// Estimates the given sub-plans — the exact set the caller's enumeration
  /// will ask Card() for — in one batch (providers with a parallel batched
  /// path override this to fill their memo up front). Default: no-op; Card()
  /// computes on demand.
  virtual void Prewarm(const workload::JoinQuery& query,
                       std::span<const uint32_t> submasks) {}
};

/// Exact cardinalities by weighted scans of the universe ("TrueCard").
class TrueCardProvider : public JoinCardProvider {
 public:
  explicit TrueCardProvider(const data::JoinUniverse& uni) : uni_(uni) {}
  std::string name() const override { return "TrueCard"; }
  double Card(const workload::JoinQuery& query, uint32_t submask) override;

 private:
  const data::JoinUniverse& uni_;
  std::unordered_map<uint64_t, double> cache_;
};

/// UAE (or UAE-D / NeuroCard when trained data-only) via progressive sampling.
class UaeCardProvider : public JoinCardProvider {
 public:
  UaeCardProvider(const data::JoinUniverse& uni, const core::Uae* uae,
                  std::string display_name)
      : uni_(uni), uae_(uae), name_(std::move(display_name)) {}
  std::string name() const override { return name_; }
  double Card(const workload::JoinQuery& query, uint32_t submask) override;
  /// Batch-estimates the submasks via Uae::EstimateJoinCards (one parallel
  /// fan-out) and fills the cache the DP loop will hit.
  void Prewarm(const workload::JoinQuery& query,
               std::span<const uint32_t> submasks) override;

 private:
  const data::JoinUniverse& uni_;
  const core::Uae* uae_;
  std::string name_;
  std::unordered_map<uint64_t, double> cache_;
};

/// Sub-plan cardinalities through the serving stack — the production shape.
///
/// Card() resolves in order:
///   1. SubplanMemo (when attached): observed-truth short-circuit, keyed by
///      the canonical SubplanFss hash — no model evaluation at all.
///   2. serve::EstimationService::EstimateJoin: micro-batched against the
///      CURRENT snapshot generation, cached per (JoinFingerprint, generation).
///
/// Because the service cache is generation-keyed, a PublishSnapshot
/// (fine-tuned clone, refreshed or sharded model) is picked up on the
/// next estimate with no provider-side invalidation — this provider holds NO
/// generation-blind state, unlike UaeCardProvider's local memo.
///
/// Thread-safety: fully thread-safe; share one instance across concurrent
/// planner threads so their Prewarm fan-outs coalesce into shared
/// micro-batches. Determinism: for a fixed snapshot generation, Card() is
/// bit-identical to model->EstimateJoinCard(RestrictToSubset(...)) no matter
/// how requests batch, race, or hit the cache.
class ServedCardProvider : public JoinCardProvider {
 public:
  /// `service` (required) and `memo` (optional) are borrowed and must outlive
  /// the provider.
  ServedCardProvider(const data::JoinUniverse& uni,
                     serve::EstimationService* service,
                     SubplanMemo* memo = nullptr,
                     std::string display_name = "UAE-served");
  std::string name() const override { return name_; }
  double Card(const workload::JoinQuery& query, uint32_t submask) override;
  /// Issues EstimateJoinAsync for every sub-plan not answered by the memo and
  /// waits for all futures: requests from this (and any concurrent) planner
  /// coalesce into shared micro-batches, and the results land in the
  /// service's result cache, which the DP loop's Card() calls then hit.
  void Prewarm(const workload::JoinQuery& query,
               std::span<const uint32_t> submasks) override;

  struct Stats {
    uint64_t service_requests = 0;  ///< Estimates routed to the service.
    uint64_t memo_hits = 0;         ///< Estimates answered by the memo.
  };
  Stats stats() const {
    return {service_requests_.load(std::memory_order_relaxed),
            memo_hits_.load(std::memory_order_relaxed)};
  }

 private:
  const data::JoinUniverse& uni_;
  serve::EstimationService* const service_;
  SubplanMemo* const memo_;  ///< Null: always serve.
  std::string name_;
  std::atomic<uint64_t> service_requests_{0};
  std::atomic<uint64_t> memo_hits_{0};
};

/// Postgres-like baseline: per-table AVI histograms + key/foreign-key join
/// selectivity (|A join B| = |A||B| / max ndv of the key).
class AviCardProvider : public JoinCardProvider {
 public:
  explicit AviCardProvider(const data::JoinUniverse& uni);
  std::string name() const override { return "Postgres-like"; }
  double Card(const workload::JoinQuery& query, uint32_t submask) override;

 private:
  /// Selectivity of the per-table predicates on base table t.
  double TableSelectivity(const workload::JoinQuery& query, int t) const;

  const data::JoinUniverse& uni_;
  std::vector<estimators::HistogramAviEstimator> hists_;  // Per base table.
};

}  // namespace uae::optimizer
