#include "shard/partitioner.h"

#include <algorithm>
#include <numeric>

#include "util/common.h"
#include "util/mathutil.h"

namespace uae::shard {

uint64_t MixShardSeed(uint64_t base_seed, int shard_id) {
  if (shard_id == 0) return base_seed;
  return util::SplitMix64(base_seed ^
                          (0x9e3779b97f4a7c15ull *
                           static_cast<uint64_t>(shard_id)));
}

HorizontalPartitioner::HorizontalPartitioner(const data::Table& table,
                                             const PartitionConfig& config)
    : config_(config) {
  if (config_.partition_col < 0) config_.partition_col = table.LargestDomainColumn();
  UAE_CHECK(config_.partition_col >= 0 && config_.partition_col < table.num_cols())
      << "partition column out of range";
  const data::Column& col = table.column(config_.partition_col);
  domain_ = col.domain();
  UAE_CHECK_GE(domain_, 1) << "cannot partition on an empty dictionary";
  // A shard with no code can never hold a row; cap the shard count at the
  // number of distinct partition values.
  config_.num_shards = std::clamp(config_.num_shards, 1, domain_);

  code_to_shard_.assign(static_cast<size_t>(domain_), 0);
  BuildRanges(col);

  // Row assignment (ascending => Materialize preserves original row order).
  shard_rows_.assign(shards_.size(), {});
  for (size_t r = 0; r < col.num_rows(); ++r) {
    int s = code_to_shard_[static_cast<size_t>(col.code_at(r))];
    shard_rows_[static_cast<size_t>(s)].push_back(r);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].rows = shard_rows_[s].size();
  }
}

void HorizontalPartitioner::BuildRanges(const data::Column& col) {
  const int n = config_.num_shards;
  const std::vector<int64_t>& freq = col.Frequencies();
  const size_t total = col.num_rows();

  int shard = 0;
  size_t cum = 0;
  int32_t lo = 0;
  for (int32_t c = 0; c < domain_; ++c) {
    code_to_shard_[static_cast<size_t>(c)] = shard;
    cum += static_cast<size_t>(freq[static_cast<size_t>(c)]);
    const int shards_after = n - shard - 1;
    const int32_t codes_after = domain_ - c - 1;
    if (shards_after == 0) continue;
    // Close the shard at the equi-depth boundary — or when exactly enough
    // codes remain to give each later shard one (every shard owns >= 1 code).
    const bool must_close = codes_after == shards_after;
    const bool want_close =
        cum * static_cast<size_t>(n) >=
        total * static_cast<size_t>(shard + 1);
    if (must_close || want_close) {
      ShardDescriptor d;
      d.shard_id = shard;
      d.code_lo = lo;
      d.code_hi = c;
      shards_.push_back(d);
      ++shard;
      lo = c + 1;
    }
  }
  ShardDescriptor last;
  last.shard_id = shard;
  last.code_lo = lo;
  last.code_hi = domain_ - 1;
  shards_.push_back(last);
  UAE_CHECK_EQ(static_cast<int>(shards_.size()), n);
}

int HorizontalPartitioner::ShardForIngestCode(int32_t code,
                                              const data::Column& column) const {
  if (code >= 0 && code < domain_) return ShardForCode(code);
  const int32_t anchor =
      std::min(column.LowerBoundCode(column.ValueForCode(code)), domain_ - 1);
  return ShardForCode(anchor);
}

std::vector<data::Table> HorizontalPartitioner::Materialize(
    const data::Table& table, const std::string& name_prefix) const {
  UAE_CHECK_EQ(table.num_rows(), [this] {
    size_t total = 0;
    for (const auto& rows : shard_rows_) total += rows.size();
    return total;
  }()) << "Materialize must be given the table the partitioner was built on";
  std::vector<data::Table> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    out.push_back(table.Gather(shard_rows_[s],
                               name_prefix + "_shard" + std::to_string(s)));
  }
  return out;
}

std::vector<int> HorizontalPartitioner::CandidateShards(
    const workload::Query& query) const {
  const int n = num_shards();
  auto all = [n] {
    std::vector<int> v(static_cast<size_t>(n));
    std::iota(v.begin(), v.end(), 0);
    return v;
  };
  if (config_.partition_col >= query.num_cols()) return all();
  const workload::Constraint& c = query.constraint(config_.partition_col);
  switch (c.kind) {
    case workload::Constraint::Kind::kNone:
      return all();
    case workload::Constraint::Kind::kRange: {
      const int32_t lo = std::max(c.lo, 0);
      const int32_t hi = std::min(c.hi, domain_ - 1);
      if (lo > hi) return {};  // Provably empty: prune everything.
      // Contiguous code interval => contiguous shard interval.
      const int first = ShardForCode(lo);
      const int last = ShardForCode(hi);
      std::vector<int> out(static_cast<size_t>(last - first + 1));
      std::iota(out.begin(), out.end(), first);
      return out;
    }
    case workload::Constraint::Kind::kIn: {
      std::vector<uint8_t> hit(static_cast<size_t>(n), 0);
      for (int32_t code : c.in_codes) {
        if (code >= 0 && code < domain_) {
          hit[static_cast<size_t>(ShardForCode(code))] = 1;
        }
      }
      std::vector<int> out;
      for (int s = 0; s < n; ++s) {
        if (hit[static_cast<size_t>(s)]) out.push_back(s);
      }
      return out;
    }
    case workload::Constraint::Kind::kNotEqual: {
      // Every shard keeps some other code unless its code set is exactly
      // {neq}.
      std::vector<int> out;
      out.reserve(static_cast<size_t>(n));
      for (int s = 0; s < n; ++s) {
        const ShardDescriptor& d = shards_[static_cast<size_t>(s)];
        if (d.code_lo == d.code_hi && d.code_lo == c.neq) continue;
        out.push_back(s);
      }
      return out;
    }
  }
  return all();
}

bool HorizontalPartitioner::MayMatch(const workload::Query& query, int s) const {
  std::vector<int> cands = CandidateShards(query);
  return std::binary_search(cands.begin(), cands.end(), s);
}

}  // namespace uae::shard
