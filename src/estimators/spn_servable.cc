#include "estimators/spn_servable.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>

#include "util/common.h"
#include "util/mathutil.h"
#include "util/threadpool.h"

namespace uae::estimators {

namespace {

/// Rows sampled per node for the pairwise NMI product-split test.
constexpr size_t kNmiSampleRows = 2000;
/// Lloyd iterations of the 2-means sum split.
constexpr int kKmeansIters = 6;
/// Depth at which a node becomes a leaf product regardless of its rows.
constexpr int kMaxDepth = 24;

/// Fine-tune step size. Larger rates overshoot and oscillate when the same
/// feedback queries are cycled for many steps (0.25 did, measured).
constexpr double kLearningRate = 0.1;
/// Clamp of the per-query truth/estimate ratio, and the estimate below
/// which a query is skipped (dividing by a denormal is meaningless).
constexpr double kMaxUpdateRatio = 8.0;
constexpr double kMinSelectivity = 1e-12;

}  // namespace

SpnServable::SpnServable(const data::Table& table,
                         const SpnServableConfig& config)
    : config_(config), num_rows_(table.num_rows()) {
  util::Rng rng(config.seed);
  std::vector<size_t> rows(num_rows_);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<int> cols(static_cast<size_t>(table.num_cols()));
  std::iota(cols.begin(), cols.end(), 0);
  root_ = Build(table, rows, cols, 0, &rng);
}

SpnServable::SpnServable(const SpnServable& other)
    : core::ServableModel(other),
      config_(other.config_),
      num_rows_(other.num_rows_),
      root_(CloneNode(*other.root_)),
      size_bytes_(other.size_bytes_),
      n_sum_(other.n_sum_),
      n_product_(other.n_product_),
      n_leaf_(other.n_leaf_) {}

std::shared_ptr<core::ServableModel> SpnServable::CloneServable() const {
  return std::shared_ptr<SpnServable>(new SpnServable(*this));
}

std::unique_ptr<SpnServable::Node> SpnServable::CloneNode(const Node& node) {
  auto copy = std::make_unique<Node>();
  copy->type = node.type;
  copy->weights = node.weights;
  copy->col = node.col;
  copy->hist = node.hist;
  copy->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    copy->children.push_back(CloneNode(*child));
  }
  return copy;
}

// ---------------------------------------------------------------------------
// Structure learning: the only code that reads the table.
// ---------------------------------------------------------------------------

std::unique_ptr<SpnServable::Node> SpnServable::MakeLeaf(
    const data::Table& table, const std::vector<size_t>& rows, int col) {
  auto leaf = std::make_unique<Node>();
  leaf->type = Node::Type::kLeaf;
  leaf->col = col;
  // Size by total_domain(), not domain(): rows appended through the
  // streaming path carry overflow-dictionary codes in
  // [domain(), total_domain()), and code_at() hands them back verbatim.
  int32_t domain = table.column(col).total_domain();
  leaf->hist.assign(static_cast<size_t>(domain), 0.0);
  for (size_t r : rows) {
    leaf->hist[static_cast<size_t>(table.column(col).code_at(r))] += 1.0;
  }
  double inv = rows.empty() ? 0.0 : 1.0 / static_cast<double>(rows.size());
  for (double& v : leaf->hist) v *= inv;
  size_bytes_ += leaf->hist.size() * sizeof(double);
  ++n_leaf_;
  return leaf;
}

std::unique_ptr<SpnServable::Node> SpnServable::LeafProduct(
    const data::Table& table, const std::vector<size_t>& rows,
    const std::vector<int>& cols) {
  if (cols.size() == 1) return MakeLeaf(table, rows, cols[0]);
  auto node = std::make_unique<Node>();
  node->type = Node::Type::kProduct;
  for (int c : cols) node->children.push_back(MakeLeaf(table, rows, c));
  ++n_product_;
  return node;
}

std::unique_ptr<SpnServable::Node> SpnServable::Build(
    const data::Table& table, const std::vector<size_t>& rows,
    const std::vector<int>& cols, int depth, util::Rng* rng) {
  if (cols.size() == 1 || rows.size() < config_.min_instances ||
      depth >= kMaxDepth) {
    return LeafProduct(table, rows, cols);
  }

  // --- Try a Product split: connected components under NMI dependence -------
  size_t m = std::min(kNmiSampleRows, rows.size());
  std::vector<size_t> srows;
  srows.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    srows.push_back(rows[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(rows.size()) - 1))]);
  }
  std::vector<std::vector<int32_t>> scodes(cols.size());
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    auto& v = scodes[ci];
    v.reserve(m);
    for (size_t r : srows) v.push_back(table.column(cols[ci]).code_at(r));
  }
  // Union-find over columns.
  std::vector<size_t> uf(cols.size());
  std::iota(uf.begin(), uf.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  for (size_t i = 0; i < cols.size(); ++i) {
    for (size_t j = i + 1; j < cols.size(); ++j) {
      if (find(i) == find(j)) continue;
      // total_domain(): sampled rows may carry overflow codes, and the MI
      // helpers bucket-count by raw code.
      double nmi = util::NormalizedMutualInformation(
          scodes[i], table.column(cols[i]).total_domain(), scodes[j],
          table.column(cols[j]).total_domain());
      if (nmi > config_.corr_threshold) uf[find(i)] = find(j);
    }
  }
  // Materialize groups in a deterministic order — keyed by each group's
  // smallest member column, not by unordered_map iteration order (which is
  // stdlib-hash-dependent and violates docs/DETERMINISM.md). `cols` stays
  // ascending through the recursion, so each group's first member is its
  // smallest and std::map gives the canonical ordering.
  std::unordered_map<size_t, std::vector<int>> groups;
  for (size_t i = 0; i < cols.size(); ++i) groups[find(i)].push_back(cols[i]);
  if (groups.size() > 1) {
    std::map<int, std::vector<int>> ordered;
    for (auto& [rep, group] : groups) {
      ordered.emplace(group.front(), std::move(group));
    }
    auto node = std::make_unique<Node>();
    node->type = Node::Type::kProduct;
    for (auto& [min_col, group] : ordered) {
      node->children.push_back(Build(table, rows, group, depth + 1, rng));
    }
    ++n_product_;
    return node;
  }

  // --- Sum split: 2-means over rows -----------------------------------------
  const size_t k = 2;
  std::vector<double> scale(cols.size());
  for (size_t ci = 0; ci < cols.size(); ++ci) {
    scale[ci] =
        1.0 / std::max<int32_t>(1, table.column(cols[ci]).total_domain() - 1);
  }
  auto feature = [&](size_t row, size_t ci) {
    return static_cast<double>(table.column(cols[ci]).code_at(row)) * scale[ci];
  };
  std::vector<std::vector<double>> centers(k, std::vector<double>(cols.size()));
  for (size_t c = 0; c < k; ++c) {
    size_t seed_row = rows[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(rows.size()) - 1))];
    for (size_t ci = 0; ci < cols.size(); ++ci) centers[c][ci] = feature(seed_row, ci);
  }
  std::vector<uint8_t> assign(rows.size(), 0);
  for (int it = 0; it < kKmeansIters; ++it) {
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      double d0 = 0.0, d1 = 0.0;
      for (size_t ci = 0; ci < cols.size(); ++ci) {
        double f = feature(rows[ri], ci);
        d0 += (f - centers[0][ci]) * (f - centers[0][ci]);
        d1 += (f - centers[1][ci]) * (f - centers[1][ci]);
      }
      assign[ri] = d1 < d0 ? 1 : 0;
    }
    for (size_t c = 0; c < k; ++c) {
      std::fill(centers[c].begin(), centers[c].end(), 0.0);
    }
    std::vector<size_t> counts(k, 0);
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      size_t c = assign[ri];
      ++counts[c];
      for (size_t ci = 0; ci < cols.size(); ++ci) {
        centers[c][ci] += feature(rows[ri], ci);
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (double& v : centers[c]) v /= static_cast<double>(counts[c]);
    }
  }
  std::vector<size_t> left, right;
  for (size_t ri = 0; ri < rows.size(); ++ri) {
    (assign[ri] == 0 ? left : right).push_back(rows[ri]);
  }
  // Degenerate clustering: fall back to a median split on the widest column.
  if (left.size() < config_.min_instances / 4 ||
      right.size() < config_.min_instances / 4) {
    left.clear();
    right.clear();
    size_t widest = 0;
    for (size_t ci = 1; ci < cols.size(); ++ci) {
      if (table.column(cols[ci]).total_domain() >
          table.column(cols[widest]).total_domain()) {
        widest = ci;
      }
    }
    std::vector<int32_t> vals;
    vals.reserve(rows.size());
    for (size_t r : rows) vals.push_back(table.column(cols[widest]).code_at(r));
    std::nth_element(vals.begin(), vals.begin() + static_cast<ptrdiff_t>(vals.size() / 2),
                     vals.end());
    int32_t median = vals[vals.size() / 2];
    for (size_t r : rows) {
      (table.column(cols[widest]).code_at(r) <= median ? left : right).push_back(r);
    }
    if (left.empty() || right.empty()) return LeafProduct(table, rows, cols);
  }
  auto node = std::make_unique<Node>();
  node->type = Node::Type::kSum;
  node->weights = {static_cast<double>(left.size()) / rows.size(),
                   static_cast<double>(right.size()) / rows.size()};
  node->children.push_back(Build(table, left, cols, depth + 1, rng));
  node->children.push_back(Build(table, right, cols, depth + 1, rng));
  size_bytes_ += 2 * sizeof(double);
  ++n_sum_;
  return node;
}

// ---------------------------------------------------------------------------
// Estimation.
// ---------------------------------------------------------------------------

double SpnServable::Evaluate(
    const Node& node, const workload::Query& query,
    const std::unordered_map<int, std::vector<float>>* col_weights) {
  switch (node.type) {
    case Node::Type::kLeaf: {
      if (col_weights != nullptr) {
        auto it = col_weights->find(node.col);
        if (it != col_weights->end()) {
          UAE_CHECK(it->second.size() >= node.hist.size())
              << "col_weights vector for column " << node.col
              << " shorter than the leaf histogram (" << it->second.size()
              << " < " << node.hist.size()
              << "); weights must cover the column's total_domain()";
          double e = 0.0;
          for (size_t v = 0; v < node.hist.size(); ++v) {
            e += node.hist[v] * it->second[v];
          }
          return e;
        }
      }
      const workload::Constraint& cons = query.constraint(node.col);
      if (!cons.IsActive()) return 1.0;
      double mass = 0.0;
      for (size_t v = 0; v < node.hist.size(); ++v) {
        if (node.hist[v] > 0.0 && cons.Matches(static_cast<int32_t>(v))) {
          mass += node.hist[v];
        }
      }
      return mass;
    }
    case Node::Type::kProduct: {
      double p = 1.0;
      for (const auto& child : node.children) {
        p *= Evaluate(*child, query, col_weights);
        if (p == 0.0) break;
      }
      return p;
    }
    case Node::Type::kSum: {
      double p = 0.0;
      for (size_t c = 0; c < node.children.size(); ++c) {
        p += node.weights[c] * Evaluate(*node.children[c], query, col_weights);
      }
      return p;
    }
  }
  return 0.0;
}

double SpnServable::EstimateCard(const workload::Query& query) const {
  return Evaluate(*root_, query, nullptr) * static_cast<double>(num_rows_);
}

std::vector<double> SpnServable::EstimateCards(
    std::span<const workload::Query> queries) const {
  std::vector<double> out(queries.size());
  // Each element is an independent pure read of an immutable tree, so the
  // parallel split cannot affect bitwise results.
  util::ParallelFor(
      0, queries.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) out[i] = EstimateCard(queries[i]);
      },
      /*min_parallel_size=*/64);
  return out;
}

double SpnServable::EstimateSelectivityWeighted(
    const workload::Query& query,
    const std::unordered_map<int, std::vector<float>>& col_weights) const {
  return Evaluate(*root_, query, &col_weights);
}

// ---------------------------------------------------------------------------
// Query-driven fine-tuning (arXiv 2505.08318-style multiplicative updates).
// ---------------------------------------------------------------------------

double SpnServable::EvalStore(Node* node, const workload::Query& query) {
  switch (node->type) {
    case Node::Type::kLeaf: {
      const workload::Constraint& cons = query.constraint(node->col);
      double mass;
      if (!cons.IsActive()) {
        mass = 1.0;
      } else {
        mass = 0.0;
        for (size_t v = 0; v < node->hist.size(); ++v) {
          if (node->hist[v] > 0.0 && cons.Matches(static_cast<int32_t>(v))) {
            mass += node->hist[v];
          }
        }
      }
      node->scratch = mass;
      return mass;
    }
    case Node::Type::kProduct: {
      double p = 1.0;
      // No zero early-exit: the backward pass needs every child's value to
      // form single-zero-sibling gradients.
      for (auto& child : node->children) p *= EvalStore(child.get(), query);
      node->scratch = p;
      return p;
    }
    case Node::Type::kSum: {
      double p = 0.0;
      for (size_t c = 0; c < node->children.size(); ++c) {
        p += node->weights[c] * EvalStore(node->children[c].get(), query);
      }
      node->scratch = p;
      return p;
    }
  }
  node->scratch = 0.0;
  return 0.0;
}

void SpnServable::ApplyUpdate(Node* node, const workload::Query& query,
                              double grad, double lr_log_ratio,
                              double root_sel) {
  if (grad <= 0.0) return;  // No probability flow through this node.
  switch (node->type) {
    case Node::Type::kLeaf: {
      const workload::Constraint& cons = query.constraint(node->col);
      // Unconstrained leaves contribute a constant 1 — nothing to learn.
      if (!cons.IsActive()) return;
      if (node->scratch <= 0.0) return;
      // share = this leaf's responsibility for the root selectivity, in
      // (0, 1]; scaling the exponent by it focuses the step where the
      // query's mass actually came from.
      double share = grad * node->scratch / root_sel;
      double factor = std::exp(lr_log_ratio * share);
      double total = 0.0;
      for (size_t v = 0; v < node->hist.size(); ++v) {
        if (node->hist[v] > 0.0 && cons.Matches(static_cast<int32_t>(v))) {
          node->hist[v] *= factor;
        }
        total += node->hist[v];
      }
      if (total > 0.0) {
        double inv = 1.0 / total;
        for (double& v : node->hist) v *= inv;
      }
      return;
    }
    case Node::Type::kProduct: {
      // d(product)/d(child c) = product of the siblings. Track zeros so a
      // single zero-valued child still receives gradient (it is exactly the
      // child suppressing the query).
      int zeros = 0;
      double nonzero_prod = 1.0;
      for (const auto& child : node->children) {
        if (child->scratch == 0.0) {
          ++zeros;
        } else {
          nonzero_prod *= child->scratch;
        }
      }
      for (auto& child : node->children) {
        double g;
        if (zeros == 0) {
          g = grad * nonzero_prod / child->scratch;
        } else if (zeros == 1 && child->scratch == 0.0) {
          g = grad * nonzero_prod;
        } else {
          g = 0.0;
        }
        ApplyUpdate(child.get(), query, g, lr_log_ratio, root_sel);
      }
      return;
    }
    case Node::Type::kSum: {
      // Children see gradients under the pre-update weights; then each
      // mixture weight moves by its responsibility share and the mixture is
      // renormalized (an EM-flavoured reweighting).
      std::vector<double> pre = node->weights;
      for (size_t c = 0; c < node->children.size(); ++c) {
        ApplyUpdate(node->children[c].get(), query, grad * pre[c],
                    lr_log_ratio, root_sel);
      }
      double total = 0.0;
      for (size_t c = 0; c < node->children.size(); ++c) {
        double share =
            grad * pre[c] * node->children[c]->scratch / root_sel;
        node->weights[c] = pre[c] * std::exp(lr_log_ratio * share);
        total += node->weights[c];
      }
      if (total > 0.0) {
        double inv = 1.0 / total;
        for (double& w : node->weights) w *= inv;
      }
      return;
    }
  }
}

size_t SpnServable::FineTune(const workload::Workload& workload,
                             const core::FineTuneSpec& spec) {
  if (workload.empty() || spec.query_steps <= 0) return 0;
  // The construction-time row count, the same one estimates scale by: rows
  // appended to the table since then must not change the labels.
  double rows = std::max<double>(1.0, static_cast<double>(num_rows_));
  std::vector<uint8_t> applied(workload.size(), 0);
  for (int step = 0; step < spec.query_steps; ++step) {
    size_t idx = static_cast<size_t>(step) % workload.size();
    const workload::LabeledQuery& lq = workload[idx];
    double sel = EvalStore(root_.get(), lq.query);
    if (!(sel > kMinSelectivity)) continue;
    // True selectivity, floored at half a row so zero-card labels pull the
    // estimate down without a log(0).
    double truth = std::max(static_cast<double>(lq.card), 0.5) / rows;
    double ratio = truth / sel;
    ratio = std::min(std::max(ratio, 1.0 / kMaxUpdateRatio), kMaxUpdateRatio);
    double lr_log_ratio = kLearningRate * std::log(ratio);
    if (lr_log_ratio != 0.0) {
      ApplyUpdate(root_.get(), lq.query, 1.0, lr_log_ratio, sel);
    }
    applied[idx] = 1;
  }
  size_t used = 0;
  for (uint8_t a : applied) used += a;
  return used;
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

std::vector<int> SpnServable::PreorderLeafColumns() const {
  std::vector<int> out;
  std::function<void(const Node&)> visit = [&](const Node& node) {
    if (node.type == Node::Type::kLeaf) {
      out.push_back(node.col);
      return;
    }
    for (const auto& child : node.children) visit(*child);
  };
  visit(*root_);
  return out;
}

std::string SpnServable::StructureSignature() const {
  std::string sig;
  sig.reserve(1024);
  char buf[32];
  auto put_bits = [&](double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    sig += buf;
  };
  std::function<void(const Node&)> visit = [&](const Node& node) {
    switch (node.type) {
      case Node::Type::kSum:
        sig += "S(";
        for (double w : node.weights) {
          put_bits(w);
          sig += ',';
        }
        break;
      case Node::Type::kProduct:
        sig += "P(";
        break;
      case Node::Type::kLeaf:
        sig += "L";
        std::snprintf(buf, sizeof(buf), "%d", node.col);
        sig += buf;
        sig += '[';
        for (double h : node.hist) {
          put_bits(h);
          sig += ',';
        }
        sig += ']';
        return;
    }
    for (const auto& child : node.children) visit(*child);
    sig += ')';
  };
  visit(*root_);
  return sig;
}

}  // namespace uae::estimators
