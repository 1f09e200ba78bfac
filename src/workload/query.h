// Query model (§3): a conjunction of per-attribute constraints. Because
// dictionaries are order-preserving, every value-space predicate compiles to a
// constraint over dictionary codes:
//   =  v        -> range [c, c]
//   <, <=, >, >= v -> one-sided code range
//   != v        -> kNotEqual
//   IN {v...}   -> kIn (sorted code set)
// Multiple predicates on one attribute intersect.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "data/table.h"

namespace uae::workload {

enum class Op { kEq, kNeq, kLt, kLe, kGt, kGe, kIn };

/// One predicate in code space. For kIn, `in_codes` holds the sorted codes.
struct Predicate {
  int col = 0;
  Op op = Op::kEq;
  int32_t code = 0;
  std::vector<int32_t> in_codes;
};

/// The compiled per-column constraint.
struct Constraint {
  enum class Kind { kNone, kRange, kNotEqual, kIn };
  Kind kind = Kind::kNone;
  int32_t lo = 0;          ///< kRange: inclusive lower code.
  int32_t hi = 0;          ///< kRange: inclusive upper code.
  int32_t neq = -1;        ///< kNotEqual.
  std::vector<int32_t> in_codes;  ///< kIn, sorted ascending.

  bool IsActive() const { return kind != Kind::kNone; }
  bool Matches(int32_t code) const;
  /// Number of allowed codes out of `domain`.
  int64_t AllowedCount(int32_t domain) const;
  /// Dense 0/1 allowed mask of length `domain`.
  std::vector<uint8_t> AllowedMask(int32_t domain) const;
  /// Whether no code can match (empty range / empty IN).
  bool IsEmpty(int32_t domain) const { return AllowedCount(domain) == 0; }
};

/// A conjunctive query over one table: one constraint slot per column.
class Query {
 public:
  Query() = default;
  explicit Query(int num_cols) : cols_(static_cast<size_t>(num_cols)) {}

  int num_cols() const { return static_cast<int>(cols_.size()); }
  const Constraint& constraint(int col) const { return cols_[static_cast<size_t>(col)]; }
  Constraint& mutable_constraint(int col) { return cols_[static_cast<size_t>(col)]; }
  int NumConstrained() const;

  /// Adds a predicate, intersecting with any existing constraint on that
  /// column. `domain` is the column's dictionary size.
  void AddPredicate(const Predicate& pred, int32_t domain);

  bool MatchesRow(const data::Table& table, size_t row) const;

  /// Stable fingerprint (for train/test dedup as required by §5.1.2).
  uint64_t Fingerprint() const;

  std::string ToString(const data::Table& table) const;

 private:
  std::vector<Constraint> cols_;
};

/// Intersection of two per-column constraints over a common domain.
Constraint IntersectConstraints(const Constraint& a, const Constraint& b,
                                int32_t domain);

/// Conjunction of two queries over the same table (per-column intersection).
Query IntersectQueries(const Query& a, const Query& b, const data::Table& table);

/// A query labeled with its true cardinality.
struct LabeledQuery {
  Query query;
  double card = 0.0;  ///< True cardinality (double: join cards are weighted).
  double selectivity = 0.0;
};

using Workload = std::vector<LabeledQuery>;

/// Builds a labeled workload from parallel (query, true cardinality) arrays —
/// the feedback-buffer -> Workload conversion of the online adaptation loop.
/// Selectivities are derived from `num_rows` (the table's row count).
Workload MakeLabeledWorkload(std::span<const Query> queries,
                             std::span<const double> cards, size_t num_rows);

/// Deterministic seeded split into a train slice and a held-out slice.
/// `holdout_fraction` of the (shuffled) queries land in `holdout`, the rest in
/// `train`; when the fraction is positive and there are >= 2 queries, both
/// sides are guaranteed non-empty.
void SplitWorkload(const Workload& all, double holdout_fraction, uint64_t seed,
                   Workload* train, Workload* holdout);

/// Cardinality of a *disjunction* of conjunctive queries via the
/// inclusion-exclusion principle (§3: "the estimator can also support
/// disjunctions"): |q1 ∨ ... ∨ qk| = Σ_∅≠S (-1)^{|S|+1} est(∧_{i∈S} q_i).
/// `estimate` is any conjunctive-cardinality oracle (UAE, a baseline, or the
/// exact executor). Exponential in k; intended for small k (checked k <= 12).
double EstimateDisjunctionCard(const std::vector<Query>& disjuncts,
                               const data::Table& table,
                               const std::function<double(const Query&)>& estimate);

}  // namespace uae::workload
