// Exact query execution over dictionary-encoded tables — the source of the
// ground-truth cardinalities used both as training labels (query workload
// feedback) and as the reference in every q-error computation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/table.h"
#include "workload/query.h"

namespace uae::workload {

/// Number of rows of `table` matching `query`. Parallel chunked scan
/// (util::ParallelFor over row blocks); constrained columns are evaluated
/// most-selective-first. Counts are integers, so the result is exactly equal
/// to the sequential scan for any chunking/thread count.
int64_t ExecuteCount(const data::Table& table, const Query& query);

/// Single-threaded reference scan — the parity oracle ExecuteCount is tested
/// against, and the per-query kernel of the batched ExecuteCounts below.
int64_t ExecuteCountSequential(const data::Table& table, const Query& query);

/// Batched ground-truth labeling: counts[i] == ExecuteCount(table, queries[i]).
/// Parallelizes across queries (each worker scans its queries sequentially) —
/// the hot path when the online feedback loop labels a drained mini-workload.
std::vector<int64_t> ExecuteCounts(const data::Table& table,
                                   std::span<const Query> queries);

/// Weighted count: sum over matching rows of prod_i 1/(code(c_i)+1) for each
/// column index in `inverse_weight_cols` — the downscaling used for join
/// cardinalities over the full-outer-join universe (fanout code F-1).
/// Fixed row blocks are summed in block order, so the result is
/// bit-identical for any thread count and calling thread.
double ExecuteWeightedCount(const data::Table& table, const Query& query,
                            const std::vector<int>& inverse_weight_cols);

/// Row indices (within [0, limit)) matching the query — used by the
/// sampling-bitmap features of MSCN+sampling.
std::vector<uint8_t> MatchBitmap(const data::Table& table, const Query& query,
                                 size_t limit);

}  // namespace uae::workload
