#include "workload/query.h"

#include <algorithm>
#include <numeric>

#include "util/common.h"
#include "util/rng.h"

namespace uae::workload {

bool Constraint::Matches(int32_t code) const {
  switch (kind) {
    case Kind::kNone:
      return true;
    case Kind::kRange:
      return code >= lo && code <= hi;
    case Kind::kNotEqual:
      return code != neq;
    case Kind::kIn:
      return std::binary_search(in_codes.begin(), in_codes.end(), code);
  }
  return true;
}

int64_t Constraint::AllowedCount(int32_t domain) const {
  switch (kind) {
    case Kind::kNone:
      return domain;
    case Kind::kRange:
      return std::max<int64_t>(0, std::min<int64_t>(hi, domain - 1) -
                                      std::max<int64_t>(lo, 0) + 1);
    case Kind::kNotEqual:
      return domain - 1;
    case Kind::kIn:
      return static_cast<int64_t>(in_codes.size());
  }
  return domain;
}

std::vector<uint8_t> Constraint::AllowedMask(int32_t domain) const {
  std::vector<uint8_t> mask(static_cast<size_t>(domain), 0);
  switch (kind) {
    case Kind::kNone:
      std::fill(mask.begin(), mask.end(), 1);
      break;
    case Kind::kRange:
      for (int32_t c = std::max(lo, 0); c <= std::min(hi, domain - 1); ++c) {
        mask[static_cast<size_t>(c)] = 1;
      }
      break;
    case Kind::kNotEqual:
      std::fill(mask.begin(), mask.end(), 1);
      if (neq >= 0 && neq < domain) mask[static_cast<size_t>(neq)] = 0;
      break;
    case Kind::kIn:
      for (int32_t c : in_codes) {
        if (c >= 0 && c < domain) mask[static_cast<size_t>(c)] = 1;
      }
      break;
  }
  return mask;
}

int Query::NumConstrained() const {
  int n = 0;
  for (const auto& c : cols_) n += c.IsActive() ? 1 : 0;
  return n;
}

namespace {

Constraint FromPredicate(const Predicate& p, int32_t domain) {
  Constraint c;
  switch (p.op) {
    case Op::kEq:
      c.kind = Constraint::Kind::kRange;
      c.lo = c.hi = p.code;
      break;
    case Op::kNeq:
      c.kind = Constraint::Kind::kNotEqual;
      c.neq = p.code;
      break;
    case Op::kLt:
      c.kind = Constraint::Kind::kRange;
      c.lo = 0;
      c.hi = p.code - 1;
      break;
    case Op::kLe:
      c.kind = Constraint::Kind::kRange;
      c.lo = 0;
      c.hi = p.code;
      break;
    case Op::kGt:
      c.kind = Constraint::Kind::kRange;
      c.lo = p.code + 1;
      c.hi = domain - 1;
      break;
    case Op::kGe:
      c.kind = Constraint::Kind::kRange;
      c.lo = p.code;
      c.hi = domain - 1;
      break;
    case Op::kIn:
      c.kind = Constraint::Kind::kIn;
      c.in_codes = p.in_codes;
      std::sort(c.in_codes.begin(), c.in_codes.end());
      c.in_codes.erase(std::unique(c.in_codes.begin(), c.in_codes.end()),
                       c.in_codes.end());
      break;
  }
  return c;
}

}  // namespace

Constraint IntersectConstraints(const Constraint& a, const Constraint& b,
                                int32_t domain) {
  if (!a.IsActive()) return b;
  if (!b.IsActive()) return a;
  if (a.kind == Constraint::Kind::kRange && b.kind == Constraint::Kind::kRange) {
    Constraint out;
    out.kind = Constraint::Kind::kRange;
    out.lo = std::max(a.lo, b.lo);
    out.hi = std::min(a.hi, b.hi);
    return out;
  }
  // General case via masks.
  auto ma = a.AllowedMask(domain);
  auto mb = b.AllowedMask(domain);
  Constraint out;
  out.kind = Constraint::Kind::kIn;
  for (int32_t c = 0; c < domain; ++c) {
    if (ma[static_cast<size_t>(c)] && mb[static_cast<size_t>(c)]) {
      out.in_codes.push_back(c);
    }
  }
  return out;
}

Query IntersectQueries(const Query& a, const Query& b, const data::Table& table) {
  UAE_CHECK_EQ(a.num_cols(), b.num_cols());
  UAE_CHECK_EQ(a.num_cols(), table.num_cols());
  Query out(a.num_cols());
  for (int c = 0; c < a.num_cols(); ++c) {
    out.mutable_constraint(c) = IntersectConstraints(
        a.constraint(c), b.constraint(c), table.column(c).domain());
  }
  return out;
}

double EstimateDisjunctionCard(const std::vector<Query>& disjuncts,
                               const data::Table& table,
                               const std::function<double(const Query&)>& estimate) {
  UAE_CHECK(!disjuncts.empty());
  UAE_CHECK_LE(disjuncts.size(), 12u) << "inclusion-exclusion blows up";
  const uint32_t full = (1u << disjuncts.size()) - 1;
  double total = 0.0;
  for (uint32_t subset = 1; subset <= full; ++subset) {
    Query conj;
    bool first = true;
    bool empty = false;
    for (size_t i = 0; i < disjuncts.size(); ++i) {
      if (!(subset & (1u << i))) continue;
      conj = first ? disjuncts[i] : IntersectQueries(conj, disjuncts[i], table);
      first = false;
    }
    // Skip provably empty conjunctions (estimators may misbehave on them).
    for (int c = 0; c < conj.num_cols() && !empty; ++c) {
      if (conj.constraint(c).IsActive() &&
          conj.constraint(c).IsEmpty(table.column(c).domain())) {
        empty = true;
      }
    }
    double sign = __builtin_popcount(subset) % 2 == 1 ? 1.0 : -1.0;
    if (!empty) total += sign * std::max(0.0, estimate(conj));
  }
  return std::max(0.0, total);
}

void Query::AddPredicate(const Predicate& pred, int32_t domain) {
  UAE_CHECK(pred.col >= 0 && pred.col < num_cols());
  Constraint next = FromPredicate(pred, domain);
  Constraint& cur = cols_[static_cast<size_t>(pred.col)];
  cur = IntersectConstraints(cur, next, domain);
}

bool Query::MatchesRow(const data::Table& table, size_t row) const {
  for (int c = 0; c < num_cols(); ++c) {
    const Constraint& cons = cols_[static_cast<size_t>(c)];
    if (cons.IsActive() && !cons.Matches(table.column(c).code_at(row))) return false;
  }
  return true;
}

uint64_t Query::Fingerprint() const {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Constraint& c = cols_[i];
    if (!c.IsActive()) continue;
    mix(i);
    mix(static_cast<uint64_t>(c.kind));
    mix(static_cast<uint64_t>(static_cast<int64_t>(c.lo)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(c.hi)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(c.neq)));
    for (int32_t v : c.in_codes) mix(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  return h;
}

Workload MakeLabeledWorkload(std::span<const Query> queries,
                             std::span<const double> cards, size_t num_rows) {
  UAE_CHECK_EQ(queries.size(), cards.size());
  Workload out;
  out.reserve(queries.size());
  double rows = static_cast<double>(std::max<size_t>(1, num_rows));
  for (size_t i = 0; i < queries.size(); ++i) {
    out.push_back({queries[i], cards[i], cards[i] / rows});
  }
  return out;
}

void SplitWorkload(const Workload& all, double holdout_fraction, uint64_t seed,
                   Workload* train, Workload* holdout) {
  UAE_CHECK(train != nullptr && holdout != nullptr);
  UAE_CHECK(holdout_fraction >= 0.0 && holdout_fraction <= 1.0);
  train->clear();
  holdout->clear();
  std::vector<size_t> order(all.size());
  std::iota(order.begin(), order.end(), size_t{0});
  util::Rng rng(seed);
  rng.Shuffle(&order);
  size_t holdout_count = static_cast<size_t>(
      holdout_fraction * static_cast<double>(all.size()));
  // A positive fraction means the caller wants a real holdout: round up to at
  // least one query, but never take the whole workload unless asked to.
  if (holdout_fraction > 0.0 && holdout_count == 0 && all.size() >= 2) {
    holdout_count = 1;
  }
  if (holdout_fraction < 1.0 && holdout_count == all.size() && !all.empty()) {
    holdout_count = all.size() - 1;
  }
  holdout->reserve(holdout_count);
  train->reserve(all.size() - holdout_count);
  for (size_t i = 0; i < order.size(); ++i) {
    (i < holdout_count ? holdout : train)->push_back(all[order[i]]);
  }
}

std::string Query::ToString(const data::Table& table) const {
  std::string out;
  for (int c = 0; c < num_cols(); ++c) {
    const Constraint& cons = cols_[static_cast<size_t>(c)];
    if (!cons.IsActive()) continue;
    if (!out.empty()) out += " AND ";
    const std::string& name = table.column(c).name();
    switch (cons.kind) {
      case Constraint::Kind::kRange:
        if (cons.lo == cons.hi) {
          out += name + "=" + std::to_string(cons.lo);
        } else {
          out += name + " IN [" + std::to_string(cons.lo) + "," +
                 std::to_string(cons.hi) + "]";
        }
        break;
      case Constraint::Kind::kNotEqual:
        out += name + "!=" + std::to_string(cons.neq);
        break;
      case Constraint::Kind::kIn:
        out += name + " IN {" + std::to_string(cons.in_codes.size()) + " codes}";
        break;
      case Constraint::Kind::kNone:
        break;
    }
  }
  return out.empty() ? "TRUE" : out;
}

}  // namespace uae::workload
