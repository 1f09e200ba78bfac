// Bayesian-network baseline (§5.1.4 #4, Chow-Liu [14]): learns the maximum-
// mutual-information spanning tree over the columns, fits sparse conditional
// probability tables along its edges, and answers range queries by exact
// sum-product message passing with per-column region indicators.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/servable.h"
#include "data/table.h"

namespace uae::estimators {

class BayesNetEstimator : public core::ServableModel {
 public:
  /// `mi_sample_rows` bounds the rows used for mutual-information estimation
  /// (the tree structure); CPTs use all rows. `alpha` is Laplace smoothing.
  BayesNetEstimator(const data::Table& table, size_t mi_sample_rows = 20000,
                    double alpha = 0.1, uint64_t seed = 13);

  double EstimateCard(const workload::Query& query) const override;
  size_t SizeBytes() const override;
  size_t num_rows() const override { return table_->num_rows(); }
  std::shared_ptr<core::ServableModel> CloneServable() const override {
    return std::make_shared<BayesNetEstimator>(*this);
  }

  /// Parent of column c in the directed tree (-1 for the root). Exposed for
  /// structure-recovery tests.
  int parent(int col) const { return parents_[static_cast<size_t>(col)]; }

 private:
  /// Sparse CPT row: distribution over child codes for one parent code.
  struct SparseDist {
    std::vector<int32_t> codes;
    std::vector<float> probs;
  };

  /// Message from child to parent: for each parent code, the probability that
  /// the child's subtree is inside the query region.
  std::vector<double> SubtreeMessage(int child, const workload::Query& query) const;

  const data::Table* table_;
  std::vector<int> parents_;
  std::vector<std::vector<int>> children_;
  std::vector<double> root_marginal_;
  int root_ = 0;
  double alpha_ = 0.1;
  /// cpt_[c]: per parent-code sparse conditional distribution of column c.
  std::vector<std::unordered_map<int32_t, SparseDist>> cpt_;
  /// Fallback marginals (unseen parent codes; smoothing base).
  std::vector<std::vector<double>> marginals_;
  size_t size_bytes_ = 0;
};

}  // namespace uae::estimators
