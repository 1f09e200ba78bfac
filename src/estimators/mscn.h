// MSCN baseline (§5.1.4 #1/#8, Kipf et al. [39]) adapted to single tables as
// the paper does (join module dropped): each predicate is featurized as
// (column one-hot, operator one-hot, normalized literal), a shared MLP embeds
// the predicates, average pooling produces the query encoding, and a final
// MLP predicts the (min-max normalized) log selectivity.
//
// Optional per-query *extra features* extend the pooled encoding — this is
// how MSCN+sampling injects its materialized-sample bitmap estimate, and how
// the join benches inject table-subset one-hots.
#pragma once

#include <memory>

#include "core/servable.h"
#include "data/table.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "workload/query.h"

namespace uae::estimators {

struct MscnConfig {
  int hidden = 64;        ///< Paper setting: 2 layers of 256; scaled for CPU.
  int extra_dim = 0;      ///< Width of caller-provided per-query features.
  float lr = 1e-3f;
  int epochs = 24;
  int batch = 64;
  uint64_t seed = 21;
};

class MscnEstimator : public core::ServableModel {
 public:
  MscnEstimator(const data::Table& table, const MscnConfig& config);

  /// Supervised training. `extras` (optional) holds config.extra_dim floats
  /// per query, aligned with the workload.
  void Train(const workload::Workload& workload,
             const std::vector<std::vector<float>>* extras = nullptr);

  double EstimateCard(const workload::Query& query) const override;
  /// Estimation with extra features (must match config.extra_dim). A query
  /// with no active constraint answers the table's row count.
  double EstimateCardExtra(const workload::Query& query,
                           const std::vector<float>& extra) const;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return table_rows_; }
  /// The copy shares the parameter tensors: Train() on either retrains both.
  /// FineTune keeps the read-only default, so no served clone retrains.
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<MscnEstimator>(*this);
  }

  /// Named trainable parameters (both MLPs), for nn/serialize checkpoints.
  std::vector<nn::NamedParam> Parameters() const;

 private:
  struct QueryFeatures {
    nn::Mat preds;   ///< [max_preds, pred_width], zero-padded.
    int num_preds = 0;
  };
  QueryFeatures Featurize(const workload::Query& query) const;
  /// Forward pass for a batch of featurized queries; returns [B,1] scores.
  nn::Tensor Forward(const std::vector<const QueryFeatures*>& batch,
                     const std::vector<const std::vector<float>*>& extras) const;

  const data::Table* table_;
  MscnConfig config_;
  int pred_width_;
  int max_preds_;
  nn::Linear pred_fc1_, pred_fc2_;  // Shared predicate MLP.
  nn::Linear out_fc1_, out_fc2_;    // Query-level MLP.
  double min_log_ = -20.0, max_log_ = 0.0;
  size_t table_rows_;
};

/// MSCN+sampling: MSCN with a materialized uniform sample whose per-query hit
/// fraction (the collapsed bitmap) is fed as extra features.
class MscnSamplingEstimator : public core::ServableModel {
 public:
  MscnSamplingEstimator(const data::Table& table, size_t sample_rows,
                        MscnConfig config);

  void Train(const workload::Workload& workload);

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return mscn_->num_rows(); }
  /// The copy shares the MSCN: Train() on either retrains both.
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<MscnSamplingEstimator>(*this);
  }

 private:
  std::vector<float> SampleFeatures(const workload::Query& query) const;

  data::Table sample_;
  std::shared_ptr<MscnEstimator> mscn_;
};

}  // namespace uae::estimators
