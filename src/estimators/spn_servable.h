// SpnServable — the Sum-Product-Network estimator behind core::ServableModel:
// the DeepDB baseline of §5.1.4 #6 (RSPN-style) and the query-driven SPN
// backend of arXiv 2505.08318 are this one class.
//
// Structure: the constructor learns the tree by recursive splitting —
// Product nodes over (approximately) independent column groups found by
// pairwise normalized mutual information, Sum nodes over row clusters found
// by k-means — with per-column histogram leaves. For the join experiments the
// leaves also evaluate expectations of per-code weights (1/F fanout
// downscaling), matching DeepDB's fanout handling.
//
// Serving: EstimateCard is one sampling-free bottom-up pass, FineTune
// multiplicatively reweights sum-node mixtures and leaf histogram bins toward
// labeled feedback, CloneServable deep-copies to a bitwise-identical
// independent candidate, and the object is pure for concurrent readers
// between FineTune calls, so the serving, adaptation, routing and sharding
// layers deploy an SPN exactly like a UAE.
//
// One row count: the table is read only while the constructor builds the
// tree. Its row count is snapshotted then, and both estimates (selectivity
// times that count) and fine-tune labels (card divided by it) use it. The
// model keeps no table pointer: rows appended to the table later change
// neither its answers nor its fine-tunes, and the table need not outlive it.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/servable.h"
#include "data/table.h"
#include "util/rng.h"
#include "workload/query.h"

namespace uae::estimators {

struct SpnServableConfig {
  size_t min_instances = 512;  ///< Rows below this become leaf products.
  /// NMI above this means "dependent". 0.3 mirrors DeepDB's default RDC
  /// threshold — coarse enough that residual correlation inside product
  /// splits shows up at the error tail on strongly correlated data (§5.2
  /// finding 5).
  double corr_threshold = 0.3;
  uint64_t seed = 31;
};

class SpnServable : public core::ServableModel {
 public:
  /// Builds the SPN over the rows `table` holds now.
  SpnServable(const data::Table& table, const SpnServableConfig& config);

  /// Root selectivity times the construction-time row count.
  double EstimateCard(const workload::Query& query) const override;
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  size_t SizeBytes() const override { return size_bytes_; }
  size_t num_rows() const override { return num_rows_; }
  uint64_t seed() const override { return config_.seed; }
  /// Deep copy: the clone shares nothing with *this (bitwise-identical
  /// parameters, independent storage).
  std::shared_ptr<core::ServableModel> CloneServable() const override;
  /// Query-driven fine-tune (arXiv 2505.08318 style: nudge the parameters so
  /// the selectivity of each labeled query moves toward the observed truth,
  /// without re-reading the table): runs spec.query_steps multiplicative
  /// updates at step size 0.1, cycling deterministically through `workload`
  /// in order (spec.hybrid_epochs has no SPN analogue and is ignored). Each
  /// step backpropagates a per-node responsibility share and reweights sum
  /// mixtures / leaf bins multiplicatively (then renormalizes). A label's
  /// truth is its card over num_rows(). The truth/estimate ratio is clamped
  /// into [1/8, 8] before its log, so one wildly mislabelled query cannot
  /// blow up the parameters, and a query whose estimate is at most 1e-12 is
  /// skipped (a multiplicative update cannot create mass in zero bins).
  /// Purely sequential and deterministic: same (model, workload, spec) ->
  /// bitwise-identical parameters, regardless of caller thread count.
  /// Returns the number of distinct workload queries that produced an
  /// update; 0 means the parameters are bitwise unchanged.
  size_t FineTune(const workload::Workload& workload,
                  const core::FineTuneSpec& spec) override;

  /// Selectivity with per-column weight vectors (join fanout downscaling):
  /// columns present in `col_weights` contribute E[w(v)] instead of P(region).
  /// Every referenced weight vector must cover the leaf histogram, i.e. have
  /// size >= the column's total_domain() at build time (checked).
  double EstimateSelectivityWeighted(
      const workload::Query& query,
      const std::unordered_map<int, std::vector<float>>& col_weights) const;

  /// Structural statistics, exposed for tests.
  int num_sum_nodes() const { return n_sum_; }
  int num_product_nodes() const { return n_product_; }
  int num_leaves() const { return n_leaf_; }

  /// Leaf columns in preorder (children visited in stored order). Product
  /// splits must emit children ordered by smallest member column, so for a
  /// pure product split over k columns this is 0..k-1 sorted — pinned by
  /// the determinism regression tests.
  std::vector<int> PreorderLeafColumns() const;

  /// Bitwise fingerprint of the full parameterization: node types, leaf
  /// columns, and the exact bit patterns of every weight and histogram
  /// entry, in preorder. Two SPNs are parameter-identical iff their
  /// signatures match. Used by clone/determinism/shard-isolation tests.
  std::string StructureSignature() const;

 private:
  /// Deep copy behind CloneServable(); copies the tree node by node.
  SpnServable(const SpnServable& other);

  struct Node {
    enum class Type { kSum, kProduct, kLeaf };
    Type type;
    // Sum.
    std::vector<std::unique_ptr<Node>> children;
    std::vector<double> weights;
    // Leaf.
    int col = -1;
    std::vector<double> hist;  ///< Normalized frequencies over total_domain.
    /// Bottom-up value cached by fine-tune's forward pass; meaningless
    /// outside FineTune (which is single-threaded by contract).
    double scratch = 0.0;
  };

  std::unique_ptr<Node> Build(const data::Table& table,
                              const std::vector<size_t>& rows,
                              const std::vector<int>& cols, int depth,
                              util::Rng* rng);
  std::unique_ptr<Node> LeafProduct(const data::Table& table,
                                    const std::vector<size_t>& rows,
                                    const std::vector<int>& cols);
  std::unique_ptr<Node> MakeLeaf(const data::Table& table,
                                 const std::vector<size_t>& rows, int col);
  static double Evaluate(
      const Node& node, const workload::Query& query,
      const std::unordered_map<int, std::vector<float>>* col_weights);

  static std::unique_ptr<Node> CloneNode(const Node& node);
  /// Forward pass for fine-tune: like Evaluate without col_weights, but
  /// stores each node's value in `scratch` and never early-exits (the
  /// backward pass needs every child's value).
  static double EvalStore(Node* node, const workload::Query& query);
  /// Backward pass: `grad` is dS/d(value of node) under the pre-update
  /// parameters, `root_sel` the forward root value. Applies the
  /// multiplicative update exp(lr * log_ratio * share) to sum weights and
  /// matching leaf bins, renormalizing each touched distribution.
  static void ApplyUpdate(Node* node, const workload::Query& query,
                          double grad, double lr_log_ratio, double root_sel);

  SpnServableConfig config_;
  size_t num_rows_;
  std::unique_ptr<Node> root_;
  size_t size_bytes_ = 0;
  int n_sum_ = 0, n_product_ = 0, n_leaf_ = 0;
};

}  // namespace uae::estimators
