#include "workload/executor.h"

#include <algorithm>
#include <atomic>

#include "util/threadpool.h"

namespace uae::workload {

namespace {

/// Constrained columns ordered by increasing allowed fraction, so the scan
/// fails fast on the most selective predicate.
std::vector<int> OrderedConstrainedCols(const data::Table& table, const Query& query) {
  std::vector<std::pair<double, int>> sel_cols;
  for (int c = 0; c < query.num_cols(); ++c) {
    const Constraint& cons = query.constraint(c);
    if (!cons.IsActive()) continue;
    double frac = static_cast<double>(cons.AllowedCount(table.column(c).domain())) /
                  std::max<int32_t>(1, table.column(c).domain());
    sel_cols.emplace_back(frac, c);
  }
  std::sort(sel_cols.begin(), sel_cols.end());
  std::vector<int> out;
  out.reserve(sel_cols.size());
  for (const auto& [frac, c] : sel_cols) out.push_back(c);
  return out;
}

/// Matching rows of [lo, hi) — the scan kernel shared by the sequential and
/// the chunk-parallel entry points, so their results are identical by
/// construction (integer sums commute).
int64_t CountRange(const data::Table& table, const Query& query,
                   const std::vector<int>& cols, size_t lo, size_t hi) {
  int64_t local = 0;
  for (size_t r = lo; r < hi; ++r) {
    bool ok = true;
    for (int c : cols) {
      if (!query.constraint(c).Matches(table.column(c).code_at(r))) {
        ok = false;
        break;
      }
    }
    local += ok ? 1 : 0;
  }
  return local;
}

/// Sum over the matching rows of [lo, hi), in row order, of
/// prod 1/(code+1) over `inverse_weight_cols`.
double WeightedRange(const data::Table& table, const Query& query,
                     const std::vector<int>& cols,
                     const std::vector<int>& inverse_weight_cols, size_t lo,
                     size_t hi) {
  double sum = 0.0;
  for (size_t r = lo; r < hi; ++r) {
    bool ok = true;
    for (int c : cols) {
      if (!query.constraint(c).Matches(table.column(c).code_at(r))) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double w = 1.0;
    for (int wc : inverse_weight_cols) {
      w /= static_cast<double>(table.column(wc).code_at(r) + 1);
    }
    sum += w;
  }
  return sum;
}

}  // namespace

int64_t ExecuteCount(const data::Table& table, const Query& query) {
  UAE_CHECK_EQ(query.num_cols(), table.num_cols());
  std::vector<int> cols = OrderedConstrainedCols(table, query);
  if (cols.empty()) return static_cast<int64_t>(table.num_rows());
  std::atomic<int64_t> total{0};
  util::ParallelFor(0, table.num_rows(), [&](size_t lo, size_t hi) {
    total.fetch_add(CountRange(table, query, cols, lo, hi),
                    std::memory_order_relaxed);
  });
  return total.load();
}

int64_t ExecuteCountSequential(const data::Table& table, const Query& query) {
  UAE_CHECK_EQ(query.num_cols(), table.num_cols());
  std::vector<int> cols = OrderedConstrainedCols(table, query);
  if (cols.empty()) return static_cast<int64_t>(table.num_rows());
  return CountRange(table, query, cols, 0, table.num_rows());
}

std::vector<int64_t> ExecuteCounts(const data::Table& table,
                                   std::span<const Query> queries) {
  std::vector<int64_t> counts(queries.size());
  // One parallel grain per query: inter-query parallelism beats splitting the
  // row range when many queries are labeled at once, and each worker's scan
  // stays a cache-friendly sequential pass.
  util::ParallelFor(
      0, queries.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          counts[i] = ExecuteCountSequential(table, queries[i]);
        }
      },
      /*min_parallel_size=*/2);
  return counts;
}

double ExecuteWeightedCount(const data::Table& table, const Query& query,
                            const std::vector<int>& inverse_weight_cols) {
  UAE_CHECK_EQ(query.num_cols(), table.num_cols());
  std::vector<int> cols = OrderedConstrainedCols(table, query);
  // Float sums do not commute, so the result must not depend on how the pool
  // chunks the scan: block b always owns rows [b*kBlockRows, (b+1)*kBlockRows)
  // and the block sums are added in block order, bit-identical for any
  // thread count (the GEMM kernels' rule, docs/DETERMINISM.md).
  constexpr size_t kBlockRows = 4096;
  const size_t rows = table.num_rows();
  std::vector<double> block_sums((rows + kBlockRows - 1) / kBlockRows, 0.0);
  util::ParallelFor(
      0, block_sums.size(),
      [&](size_t block_lo, size_t block_hi) {
        for (size_t b = block_lo; b < block_hi; ++b) {
          const size_t hi = std::min(rows, (b + 1) * kBlockRows);
          block_sums[b] = WeightedRange(table, query, cols,
                                        inverse_weight_cols, b * kBlockRows, hi);
        }
      },
      /*min_parallel_size=*/2);
  double total = 0.0;
  for (double sum : block_sums) total += sum;
  return total;
}

std::vector<uint8_t> MatchBitmap(const data::Table& table, const Query& query,
                                 size_t limit) {
  limit = std::min(limit, table.num_rows());
  std::vector<uint8_t> bits(limit, 0);
  for (size_t r = 0; r < limit; ++r) {
    bits[r] = query.MatchesRow(table, r) ? 1 : 0;
  }
  return bits;
}

}  // namespace uae::workload
