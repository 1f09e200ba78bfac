#include "optimizer/subplan_memo.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "util/mathutil.h"
#include "workload/metrics.h"

namespace uae::optimizer {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  return util::SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ull));
}

constexpr char kMagic[4] = {'U', 'A', 'E', 'M'};
constexpr uint32_t kVersion = 1;

/// Background poll cadence of Start()ed refreshers.
constexpr std::chrono::milliseconds kRefreshPeriod{50};

/// EMA weight of a new observation in log space (see SubplanMemo::Observe).
constexpr double kSmoothing = 0.5;

}  // namespace

uint64_t SubplanFss(const data::JoinUniverse& uni,
                    const workload::JoinQuery& subplan) {
  const uint32_t mask = subplan.table_mask;
  uint64_t h = Mix(0x55AEull, mask);
  for (int t = 0; t < uni.NumTables(); ++t) {
    if (!(mask & (1u << t))) continue;
    h = Mix(h, static_cast<uint64_t>(t));
    if (t != 0 && (mask & 1u)) {
      // The join clause the star schema implies: dimension t equi-joins the
      // fact table on the title key. Encoded per edge so a future non-star
      // schema can fold arbitrary clause sets the same way.
      h = Mix(h, (0ull << 8) | static_cast<uint64_t>(t));
    }
    // Local predicates in ascending universe-column order. Query holds one
    // intersected constraint per column and kIn lists stay sorted, so the
    // fold is invariant to the order clauses were added in.
    for (int c : uni.tables[static_cast<size_t>(t)].content_cols) {
      const workload::Constraint& cons = subplan.pred.constraint(c);
      if (!cons.IsActive()) continue;
      h = Mix(h, static_cast<uint64_t>(c));
      h = Mix(h, static_cast<uint64_t>(cons.kind));
      switch (cons.kind) {
        case workload::Constraint::Kind::kNone:
          break;
        case workload::Constraint::Kind::kRange:
          h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(cons.lo)));
          h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(cons.hi)));
          break;
        case workload::Constraint::Kind::kNotEqual:
          h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(cons.neq)));
          break;
        case workload::Constraint::Kind::kIn:
          h = Mix(h, cons.in_codes.size());
          for (int32_t code : cons.in_codes) {
            h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(code)));
          }
          break;
      }
    }
  }
  return h;
}

std::optional<double> SubplanMemo::Lookup(uint64_t fss) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = entries_.find(fss);
  if (it == entries_.end() || it->second.nobs == 0) {
    return std::nullopt;
  }
  ++stats_.hits;
  return std::exp(it->second.log_card);
}

void SubplanMemo::Observe(uint64_t fss, double observed_card) {
  const double log_obs = std::log(std::max(observed_card, 1.0));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.observations;
  SubplanMemoEntry& e = entries_[fss];
  if (e.nobs == 0) {
    e.fss = fss;
    e.log_card = log_obs;
  } else {
    e.log_card = (1.0 - kSmoothing) * e.log_card + kSmoothing * log_obs;
  }
  ++e.nobs;
}

size_t SubplanMemo::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

SubplanMemoStats SubplanMemo::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<SubplanMemoEntry> SubplanMemo::Entries() const {
  std::vector<SubplanMemoEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [fss, e] : entries_) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const SubplanMemoEntry& a, const SubplanMemoEntry& b) {
              return a.fss < b.fss;
            });
  return out;
}

util::Status SubplanMemo::Save(const std::string& path) const {
  std::vector<SubplanMemoEntry> sorted = Entries();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return util::Status::IoError("cannot open " + path);
  out.write(kMagic, 4);
  uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  uint64_t count = sorted.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const SubplanMemoEntry& e : sorted) {
    out.write(reinterpret_cast<const char*>(&e.fss), sizeof(e.fss));
    // Raw IEEE-754 bits: a load/save round trip reproduces the file exactly.
    uint64_t bits;
    std::memcpy(&bits, &e.log_card, sizeof(bits));
    out.write(reinterpret_cast<const char*>(&bits), sizeof(bits));
    out.write(reinterpret_cast<const char*>(&e.nobs), sizeof(e.nobs));
  }
  if (!out.good()) return util::Status::IoError("write failed: " + path);
  return util::Status::Ok();
}

util::Status SubplanMemo::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return util::Status::NotFound("cannot open " + path);
  char magic[4];
  in.read(magic, 4);
  if (!in.good() || std::memcmp(magic, kMagic, 4) != 0) {
    return util::Status::InvalidArgument("bad memo magic in " + path);
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (version != kVersion) {
    return util::Status::InvalidArgument("bad memo version in " + path);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in.good()) return util::Status::IoError("truncated memo: " + path);
  // The count is untrusted, so nothing is reserved from it: a count larger
  // than the file holds ends at the first short read below.
  std::unordered_map<uint64_t, SubplanMemoEntry> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    SubplanMemoEntry e;
    uint64_t bits = 0;
    in.read(reinterpret_cast<char*>(&e.fss), sizeof(e.fss));
    in.read(reinterpret_cast<char*>(&bits), sizeof(bits));
    in.read(reinterpret_cast<char*>(&e.nobs), sizeof(e.nobs));
    if (!in.good()) return util::Status::IoError("truncated memo: " + path);
    std::memcpy(&e.log_card, &bits, sizeof(bits));
    loaded.emplace(e.fss, e);
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(loaded);
  return util::Status::Ok();
}

size_t RecordPlanFeedback(const data::JoinUniverse& uni,
                          const workload::JoinQuery& query,
                          const std::vector<int>& order,
                          const std::vector<double>& step_rows,
                          uint64_t generation,
                          online::FeedbackCollector* collector) {
  UAE_CHECK(collector != nullptr);
  UAE_CHECK_EQ(order.size(), step_rows.size() + 1);
  size_t added = 0;
  uint32_t prefix = 1u << order[0];
  for (size_t step = 1; step < order.size(); ++step) {
    prefix |= 1u << order[step];
    workload::JoinQuery sub = RestrictToSubset(uni, query, prefix);
    online::FeedbackEntry entry;
    entry.query = sub.pred;
    entry.join_mask = sub.table_mask;
    entry.true_card = step_rows[step - 1];
    entry.generation = generation;
    collector->Add(std::move(entry));
    ++added;
  }
  return added;
}

SubplanMemoRefresher::SubplanMemoRefresher(
    const data::JoinUniverse& uni, SubplanMemo* memo,
    online::FeedbackCollector* collector, online::DriftMonitor* drift,
    online::FeedbackCollector* passthrough)
    : uni_(uni),
      memo_(memo),
      collector_(collector),
      drift_(drift),
      passthrough_(passthrough),
      loop_(kRefreshPeriod, [this] { RefreshOnce(); }) {
  UAE_CHECK(memo_ != nullptr);
  UAE_CHECK(collector_ != nullptr);
}

SubplanMemoRefresher::~SubplanMemoRefresher() { Stop(); }

size_t SubplanMemoRefresher::RefreshOnce() {
  size_t folded = 0;
  for (online::FeedbackEntry& entry : collector_->Drain()) {
    if (entry.join_mask == 0) {
      if (passthrough_ != nullptr) passthrough_->Add(std::move(entry));
      continue;
    }
    workload::JoinQuery sub{entry.join_mask, entry.query};
    memo_->Observe(SubplanFss(uni_, sub), entry.true_card);
    // An estimated_card of 0 means the entry carries no estimate.
    if (drift_ != nullptr && entry.estimated_card > 0.0) {
      drift_->Observe(entry.generation,
                      workload::QError(entry.estimated_card, entry.true_card));
    }
    ++folded;
  }
  return folded;
}

void SubplanMemoRefresher::Stop() {
  if (loop_.Stop()) RefreshOnce();  // Fold anything that raced the shutdown.
}

}  // namespace uae::optimizer
