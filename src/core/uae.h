// UAE — the unified deep autoregressive estimator (§4). One ResMADE model,
// three training modes sharing the same parameters:
//
//   * UAE-D  (TrainData...)   : unsupervised L_data only — equivalent to Naru.
//   * UAE-Q  (TrainQuery...)  : supervised L_query via DPS only.
//   * UAE    (TrainHybrid...) : L = L_data + lambda * L_query  (Alg. 3).
//
// The same object also ingests incremental data (more L_data steps on the new
// tuples) and incremental query workloads (more L_query steps) — §4.5 — and
// supports join cardinalities when constructed over a JoinUniverse (§4.6).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "core/dps.h"
#include "core/made.h"
#include "core/progressive.h"
#include "core/servable.h"
#include "core/targets.h"
#include "data/imdb_star.h"
#include "data/table.h"
#include "nn/optimizer.h"
#include "util/status.h"
#include "workload/join_workload.h"
#include "workload/query.h"

namespace uae::core {

class FrozenMadeBackend;

struct UaeConfig {
  // Model architecture.
  int hidden = 64;
  int blocks = 1;
  data::EncoderKind encoder = data::EncoderKind::kBinary;
  int embed_dim = 16;
  int32_t factor_threshold = 2048;  ///< Domains above this are factorized.
  int factor_bits = 8;

  // Optimization.
  float lr = 2e-3f;
  int data_batch = 512;
  float grad_clip = 8.f;

  // Supervised part (UAE-Q / hybrid).
  int dps_samples = 32;    ///< S (paper: 200; scaled for the CPU substrate).
  int query_batch = 16;    ///< Queries per DPS step.
  float tau = 1.0f;        ///< Gumbel-Softmax temperature.
  float lambda = 1e-4f;    ///< Trade-off hyper-parameter (Eq. 11).

  // Inference.
  int ps_samples = 200;    ///< Progressive-sampling estimate samples.

  uint64_t seed = 1;
};

/// Per-epoch progress report passed to training callbacks.
struct TrainStats {
  int epoch = 0;
  double data_loss = 0.0;
  double query_loss = 0.0;
  double seconds = 0.0;
};
using TrainCallback = std::function<void(const TrainStats&)>;

class Uae : public ServableModel {
 public:
  /// Single-table estimator over `table` (must outlive the estimator).
  Uae(const data::Table& table, const UaeConfig& config);
  /// Join estimator over a full-outer-join universe (must outlive this).
  Uae(const data::JoinUniverse& universe, const UaeConfig& config);

  // ---- Training -------------------------------------------------------------
  /// UAE-D / Naru: unsupervised epochs over the data.
  void TrainDataEpochs(int epochs, const TrainCallback& cb = nullptr);
  /// UAE-Q: supervised DPS steps over a labeled workload.
  void TrainQuerySteps(const workload::Workload& workload, int steps,
                       const TrainCallback& cb = nullptr);
  void TrainQuerySteps(const workload::JoinWorkload& workload, int steps,
                       const TrainCallback& cb = nullptr);
  /// UAE hybrid (Alg. 3): each step draws a data batch and a query batch and
  /// minimizes L_data + lambda * L_query.
  void TrainHybridEpochs(const workload::Workload& workload, int epochs,
                         const TrainCallback& cb = nullptr);
  void TrainHybridEpochs(const workload::JoinWorkload& workload, int epochs,
                         const TrainCallback& cb = nullptr);

  // ---- Incremental ingestion (§4.5) ----------------------------------------
  /// ServableModel: appends new tuples and runs unsupervised epochs on the
  /// new data only.
  void IngestDataRows(const data::Table& delta, int epochs) override;

  // ---- Estimation -----------------------------------------------------------
  // Estimates draw progressive samples from an RNG seeded per query from
  // (config.seed, query fingerprint), so every estimate is a pure function of
  // the model and the query: independent of call order, batch composition,
  // and thread count. Batched variants run the wavefront sampler, whose waves
  // fan across the global pool.
  double EstimateSelectivity(const workload::Query& query) const;
  double EstimateCard(const workload::Query& query) const override;
  /// ServableModel: join estimation is available iff this estimator was
  /// constructed over a JoinUniverse (the serving layer checks this before
  /// routing join sub-plan requests here).
  bool SupportsJoinQueries() const override { return universe_ != nullptr; }
  double EstimateJoinCard(const workload::JoinQuery& query) const override;
  /// Batched parallel estimation; element i corresponds to queries[i] and is
  /// bit-identical to EstimateCard(queries[i]).
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  std::vector<double> EstimateSelectivities(
      std::span<const workload::Query> queries) const;
  /// Batched join estimation; element i is bit-identical to
  /// EstimateJoinCard(queries[i]) (same per-query RNG purity contract).
  std::vector<double> EstimateJoinCards(
      std::span<const workload::JoinQuery> queries) const override;
  /// Estimate plus the progressive-sampling Monte-Carlo standard error.
  PsEstimate EstimateWithError(const workload::Query& query) const;

  /// Generative sampling of tuples (original-column codes).
  std::vector<std::vector<int32_t>> Sample(int count) const;

  // ---- Snapshotting ----------------------------------------------------------
  /// Deep copy: an independent estimator with bit-identical parameters over
  /// the same table/universe. The clone re-derives its masks from the config
  /// seed and imports the weight values (via nn/serialize's CopyParams), so
  /// its estimates are bit-identical to this model's at clone time while
  /// further training of either side leaves the other untouched. Optimizer
  /// moments are not cloned (a snapshot serves inference; a clone that keeps
  /// training warms its Adam state afresh).
  std::unique_ptr<Uae> Clone() const;
  /// ServableModel: Clone() behind the serving interface.
  std::shared_ptr<ServableModel> CloneServable() const override;
  /// ServableModel: TrainQuerySteps (or TrainHybridEpochs when
  /// spec.hybrid_epochs > 0) on the feedback workload; no-op when empty or
  /// when the spec allots zero steps (returns 0 then).
  size_t FineTune(const workload::Workload& workload,
                  const FineTuneSpec& spec) override;
  /// Imports parameter values from `other` (names and shapes must match —
  /// i.e. same schema and architecture config).
  util::Status CopyParamsFrom(const Uae& other);

  // ---- Introspection / persistence ------------------------------------------
  size_t SizeBytes() const override { return model_->SizeBytes(); }
  size_t num_rows() const override { return num_rows_; }
  uint64_t seed() const override { return config_.seed; }
  /// The construction config (fine-tune controllers read seeds/knobs off it).
  const UaeConfig& config() const { return config_; }
  const MadeModel& model() const { return *model_; }
  const data::VirtualSchema& schema() const { return schema_; }
  /// The estimation table: the construction table for single-table
  /// estimators, the full-outer-join universe table for join estimators.
  const data::Table* table() const { return table_; }
  /// Null for single-table estimators; the join universe otherwise.
  const data::JoinUniverse* universe() const { return universe_; }
  /// Frozen fp32 inference plane over the current parameters (lazily built,
  /// cached until the next parameter mutation). Backs the wavefront batched
  /// estimate paths; safe to call concurrently.
  std::shared_ptr<const FrozenMadeBackend> FrozenBackend() const;
  util::Status Save(const std::string& path) const;
  util::Status Load(const std::string& path);

 private:
  /// Clone() plumbing: copies the trained state of `other` without
  /// re-encoding the table into vcodes (the code store is shared
  /// copy-on-write, so snapshots cost one model's weights, not one table).
  Uae(const Uae& other);

  void Init(const data::Table& table, const UaeConfig& config);
  MadeConfig MakeMadeConfig() const;
  /// Training-only state is built lazily: inference snapshots never pay for
  /// Adam moment buffers.
  nn::Adam& Optimizer();
  /// Detaches vcodes_ from any snapshot sharing it before mutation.
  std::vector<std::vector<int32_t>>& MutableVcodes();
  /// Independent estimation RNG for one query (seed x fingerprint mix).
  util::Rng EstimationRng(uint64_t fingerprint) const;
  /// The batched driver behind EstimateSelectivities and EstimateJoinCards:
  /// wavefront sampling over FrozenBackend(), query i drawing from
  /// EstimationRng(fingerprints[i]).
  std::vector<double> WavefrontSelectivities(
      std::span<const QueryTargets> targets,
      std::span<const uint64_t> fingerprints) const;
  /// Drops the cached frozen backend; every parameter mutation calls this.
  void InvalidateFrozen();
  /// One optimizer step for the given loss graph.
  double StepLoss(const nn::Tensor& loss);
  /// `count` training-row ids drawn uniformly from [first, first + n).
  std::vector<size_t> DrawRows(size_t first, size_t n, size_t count);
  nn::Tensor BuildDataLoss(const std::vector<size_t>& rows);
  /// A labeled workload compiled for DPS: each query's targets and its label
  /// as a selectivity (card over num_rows_).
  struct CompiledWorkload {
    std::vector<QueryTargets> targets;
    std::vector<double> sels;
  };
  QueryTargets TargetsFor(const workload::Query& query) const;
  QueryTargets TargetsFor(const workload::JoinQuery& query) const;
  /// Compiles a Workload or a JoinWorkload (cheap; nothing is cached).
  template <typename LabeledWorkload>
  CompiledWorkload Compile(const LabeledWorkload& workload) const;
  /// DPS loss of one query batch drawn uniformly from `w`.
  nn::Tensor QueryBatchLoss(const CompiledWorkload& w);
  void QueryLoop(const CompiledWorkload& w, int steps, const TrainCallback& cb);
  void HybridLoop(const CompiledWorkload& w, int epochs, const TrainCallback& cb);

  const data::Table* table_ = nullptr;
  const data::JoinUniverse* universe_ = nullptr;
  UaeConfig config_;
  data::VirtualSchema schema_;
  std::unique_ptr<MadeModel> model_;
  std::unique_ptr<nn::Adam> optimizer_;  ///< Lazy; see Optimizer().
  /// Columnar virtual-code store of the training rows, shared between an
  /// estimator and its Clone()s (copy-on-write via MutableVcodes()).
  std::shared_ptr<const std::vector<std::vector<int32_t>>> vcodes_;
  size_t num_rows_ = 0;
  mutable util::Rng rng_;
  /// Cached frozen inference plane for the wavefront estimate paths;
  /// invalidated on every parameter mutation (StepLoss / Load /
  /// CopyParamsFrom).
  mutable std::mutex frozen_mu_;
  mutable std::shared_ptr<const FrozenMadeBackend> frozen_;
};

}  // namespace uae::core
