#include "core/uae.h"

#include <algorithm>
#include <cmath>

#include "core/wavefront.h"
#include "nn/serialize.h"
#include "util/logging.h"
#include "util/mathutil.h"
#include "util/stopwatch.h"

namespace uae::core {

Uae::Uae(const data::Table& table, const UaeConfig& config) : rng_(config.seed) {
  table_ = &table;
  Init(table, config);
}

Uae::Uae(const data::JoinUniverse& universe, const UaeConfig& config)
    : rng_(config.seed) {
  universe_ = &universe;
  table_ = &universe.universe;
  Init(universe.universe, config);
}

void Uae::Init(const data::Table& table, const UaeConfig& config) {
  config_ = config;
  schema_ = data::VirtualSchema::Build(table, config.factor_threshold,
                                       config.factor_bits);
  model_ = std::make_unique<MadeModel>(&schema_, MakeMadeConfig());

  // Columnar virtual-code store.
  num_rows_ = table.num_rows();
  auto vcodes = std::make_shared<std::vector<std::vector<int32_t>>>(
      static_cast<size_t>(schema_.num_virtual()));
  for (auto& v : *vcodes) v.reserve(num_rows_);
  std::vector<int32_t> orig(static_cast<size_t>(table.num_cols()));
  std::vector<int32_t> virt;
  for (size_t r = 0; r < num_rows_; ++r) {
    for (int c = 0; c < table.num_cols(); ++c) orig[static_cast<size_t>(c)] = table.column(c).code_at(r);
    schema_.EncodeRow(orig, &virt);
    for (int vc = 0; vc < schema_.num_virtual(); ++vc) {
      (*vcodes)[static_cast<size_t>(vc)].push_back(virt[static_cast<size_t>(vc)]);
    }
  }
  vcodes_ = std::move(vcodes);
}

MadeConfig Uae::MakeMadeConfig() const {
  MadeConfig mc;
  mc.hidden = config_.hidden;
  mc.blocks = config_.blocks;
  mc.encoder = config_.encoder;
  mc.embed_dim = config_.embed_dim;
  mc.seed = config_.seed;
  return mc;
}

Uae::Uae(const Uae& other)
    : table_(other.table_),
      universe_(other.universe_),
      config_(other.config_),
      schema_(other.schema_),
      vcodes_(other.vcodes_),  // Shared until either side mutates.
      num_rows_(other.num_rows_),
      rng_(other.rng_) {
  model_ = std::make_unique<MadeModel>(&schema_, MakeMadeConfig());
  util::Status st = CopyParamsFrom(other);
  UAE_CHECK(st.ok()) << st.ToString();
}

std::unique_ptr<Uae> Uae::Clone() const {
  return std::unique_ptr<Uae>(new Uae(*this));
}

std::shared_ptr<ServableModel> Uae::CloneServable() const {
  return std::shared_ptr<ServableModel>(Clone());
}

size_t Uae::FineTune(const workload::Workload& workload, const FineTuneSpec& spec) {
  if (workload.empty()) return 0;
  if (spec.hybrid_epochs > 0) {
    TrainHybridEpochs(workload, spec.hybrid_epochs);
  } else if (spec.query_steps > 0) {
    TrainQuerySteps(workload, spec.query_steps);
  } else {
    return 0;
  }
  return workload.size();
}

util::Status Uae::CopyParamsFrom(const Uae& other) {
  auto params = model_->Parameters();
  util::Status st = nn::CopyParams(other.model_->Parameters(), &params);
  InvalidateFrozen();
  return st;
}

std::shared_ptr<const FrozenMadeBackend> Uae::FrozenBackend() const {
  std::lock_guard<std::mutex> lock(frozen_mu_);
  if (!frozen_) frozen_ = std::make_shared<FrozenMadeBackend>(*model_);
  return frozen_;
}

void Uae::InvalidateFrozen() {
  std::lock_guard<std::mutex> lock(frozen_mu_);
  frozen_.reset();
}

nn::Adam& Uae::Optimizer() {
  if (!optimizer_) {
    optimizer_ = std::make_unique<nn::Adam>(model_->Parameters(), config_.lr);
  }
  return *optimizer_;
}

std::vector<std::vector<int32_t>>& Uae::MutableVcodes() {
  // Copy-on-write: snapshots produced by Clone() share the code store, so
  // detach before the first mutation. The pointee is always created
  // non-const (Init / the copy here), so the const_cast is well-defined.
  if (vcodes_.use_count() != 1) {
    auto fresh =
        std::make_shared<std::vector<std::vector<int32_t>>>(*vcodes_);
    vcodes_ = fresh;
    return *fresh;
  }
  return const_cast<std::vector<std::vector<int32_t>>&>(*vcodes_);
}

double Uae::StepLoss(const nn::Tensor& loss) {
  double value = loss->value().at(0, 0);
  nn::Backward(loss);
  nn::ClipGradNorm(model_->Parameters(), config_.grad_clip);
  nn::Adam& opt = Optimizer();
  opt.Step();
  opt.ZeroGrad();
  InvalidateFrozen();
  return value;
}

nn::Tensor Uae::BuildDataLoss(const std::vector<size_t>& rows) {
  const int n_vc = schema_.num_virtual();
  std::vector<std::vector<int32_t>> in_codes(static_cast<size_t>(n_vc));
  std::vector<std::vector<int32_t>> tgt_codes(static_cast<size_t>(n_vc));
  for (auto& v : in_codes) v.reserve(rows.size());
  for (auto& v : tgt_codes) v.reserve(rows.size());
  // Wildcard-skipping dropout (Naru-style): draw the number of wildcarded
  // columns uniformly in [0, n], then the positions uniformly, so every
  // marginalization pattern gets coverage. All digits of one original column
  // are wildcarded together so the model learns true marginal conditionals.
  const int n_orig = schema_.num_original();
  std::vector<uint8_t> wild(static_cast<size_t>(n_orig));
  std::vector<int> cols_perm(static_cast<size_t>(n_orig));
  for (int oc = 0; oc < n_orig; ++oc) cols_perm[static_cast<size_t>(oc)] = oc;
  for (size_t r : rows) {
    std::fill(wild.begin(), wild.end(), 0);
    int k = static_cast<int>(rng_.UniformInt(0, n_orig));
    for (int i = 0; i < k; ++i) {
      int j = static_cast<int>(rng_.UniformInt(i, n_orig - 1));
      std::swap(cols_perm[static_cast<size_t>(i)], cols_perm[static_cast<size_t>(j)]);
      wild[static_cast<size_t>(cols_perm[static_cast<size_t>(i)])] = 1;
    }
    for (int vc = 0; vc < n_vc; ++vc) {
      int32_t code = (*vcodes_)[static_cast<size_t>(vc)][r];
      tgt_codes[static_cast<size_t>(vc)].push_back(code);
      bool w = wild[static_cast<size_t>(schema_.vcol(vc).orig_col)] != 0;
      in_codes[static_cast<size_t>(vc)].push_back(
          w ? schema_.vcol(vc).domain : code);
    }
  }
  return model_->DataLoss(in_codes, tgt_codes);
}

nn::Tensor Uae::BuildQueryLoss(const std::vector<const QueryTargets*>& targets,
                               const std::vector<double>& sels) {
  DpsConfig dc;
  dc.samples = config_.dps_samples;
  dc.tau = config_.tau;
  dc.sel_floor = 1.f / static_cast<float>(std::max<size_t>(num_rows_, 1));
  return DpsQueryLoss(*model_, targets, sels, dc, &rng_);
}

void Uae::TrainDataEpochs(int epochs, const TrainCallback& cb) {
  const size_t steps =
      (num_rows_ + static_cast<size_t>(config_.data_batch) - 1) /
      static_cast<size_t>(config_.data_batch);
  for (int e = 0; e < epochs; ++e) {
    util::Stopwatch timer;
    double total = 0.0;
    for (size_t s = 0; s < steps; ++s) {
      std::vector<size_t> rows(static_cast<size_t>(config_.data_batch));
      for (auto& r : rows) {
        r = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(num_rows_) - 1));
      }
      total += StepLoss(BuildDataLoss(rows));
    }
    if (cb) cb({e, total / static_cast<double>(steps), 0.0, timer.ElapsedSeconds()});
  }
}

std::vector<QueryTargets> Uae::CompileTargets(const workload::Workload& w) const {
  std::vector<QueryTargets> out;
  out.reserve(w.size());
  for (const auto& lq : w) out.push_back(BuildTargets(lq.query, *table_, schema_));
  return out;
}

std::vector<QueryTargets> Uae::CompileTargets(const workload::JoinWorkload& w) const {
  UAE_CHECK(universe_ != nullptr) << "join workload on a single-table estimator";
  std::vector<QueryTargets> out;
  out.reserve(w.size());
  for (const auto& lq : w) out.push_back(BuildJoinTargets(lq.query, *universe_, schema_));
  return out;
}

void Uae::QueryLoop(const std::vector<QueryTargets>& targets,
                    const std::vector<double>& sels, int steps,
                    const TrainCallback& cb) {
  UAE_CHECK(!targets.empty());
  util::Stopwatch timer;
  double total = 0.0;
  for (int s = 0; s < steps; ++s) {
    std::vector<const QueryTargets*> batch;
    std::vector<double> batch_sels;
    int qb = std::min<int>(config_.query_batch, static_cast<int>(targets.size()));
    for (int i = 0; i < qb; ++i) {
      size_t pick = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(targets.size()) - 1));
      batch.push_back(&targets[pick]);
      batch_sels.push_back(sels[pick]);
    }
    total += StepLoss(BuildQueryLoss(batch, batch_sels));
    if (cb && (s + 1) % 25 == 0) {
      cb({s + 1, 0.0, total / (s + 1), timer.ElapsedSeconds()});
    }
  }
}

void Uae::TrainQuerySteps(const workload::Workload& workload, int steps,
                          const TrainCallback& cb) {
  std::vector<QueryTargets> targets = CompileTargets(workload);
  std::vector<double> sels;
  sels.reserve(workload.size());
  for (const auto& lq : workload) {
    sels.push_back(lq.card / static_cast<double>(num_rows_));
  }
  QueryLoop(targets, sels, steps, cb);
}

void Uae::TrainQuerySteps(const workload::JoinWorkload& workload, int steps,
                          const TrainCallback& cb) {
  std::vector<QueryTargets> targets = CompileTargets(workload);
  std::vector<double> sels;
  sels.reserve(workload.size());
  for (const auto& lq : workload) {
    sels.push_back(lq.card / static_cast<double>(num_rows_));
  }
  QueryLoop(targets, sels, steps, cb);
}

void Uae::HybridLoop(const std::vector<QueryTargets>& targets,
                     const std::vector<double>& sels, int epochs,
                     const TrainCallback& cb) {
  const size_t steps =
      (num_rows_ + static_cast<size_t>(config_.data_batch) - 1) /
      static_cast<size_t>(config_.data_batch);
  for (int e = 0; e < epochs; ++e) {
    util::Stopwatch timer;
    double d_total = 0.0, q_total = 0.0;
    for (size_t s = 0; s < steps; ++s) {
      // Alg. 3 lines 3-7: one random data batch + one random query batch.
      std::vector<size_t> rows(static_cast<size_t>(config_.data_batch));
      for (auto& r : rows) {
        r = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(num_rows_) - 1));
      }
      nn::Tensor data_loss = BuildDataLoss(rows);

      std::vector<const QueryTargets*> batch;
      std::vector<double> batch_sels;
      int qb = std::min<int>(config_.query_batch, static_cast<int>(targets.size()));
      for (int i = 0; i < qb; ++i) {
        size_t pick = static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(targets.size()) - 1));
        batch.push_back(&targets[pick]);
        batch_sels.push_back(sels[pick]);
      }
      nn::Tensor query_loss = BuildQueryLoss(batch, batch_sels);

      d_total += data_loss->value().at(0, 0);
      q_total += query_loss->value().at(0, 0);
      nn::Tensor loss = nn::Add(data_loss, nn::Scale(query_loss, config_.lambda));
      StepLoss(loss);
    }
    if (cb) {
      cb({e, d_total / static_cast<double>(steps), q_total / static_cast<double>(steps),
          timer.ElapsedSeconds()});
    }
  }
}

void Uae::TrainHybridEpochs(const workload::Workload& workload, int epochs,
                            const TrainCallback& cb) {
  std::vector<QueryTargets> targets = CompileTargets(workload);
  std::vector<double> sels;
  sels.reserve(workload.size());
  for (const auto& lq : workload) {
    sels.push_back(lq.card / static_cast<double>(num_rows_));
  }
  HybridLoop(targets, sels, epochs, cb);
}

void Uae::TrainHybridEpochs(const workload::JoinWorkload& workload, int epochs,
                            const TrainCallback& cb) {
  std::vector<QueryTargets> targets = CompileTargets(workload);
  std::vector<double> sels;
  sels.reserve(workload.size());
  for (const auto& lq : workload) {
    sels.push_back(lq.card / static_cast<double>(num_rows_));
  }
  HybridLoop(targets, sels, epochs, cb);
}

void Uae::IngestDataRows(const data::Table& delta, int epochs) {
  UAE_CHECK_EQ(delta.num_cols(), schema_.num_original());
  size_t first_new = num_rows_;
  std::vector<std::vector<int32_t>>& vcodes = MutableVcodes();
  std::vector<int32_t> orig(static_cast<size_t>(delta.num_cols()));
  std::vector<int32_t> virt;
  for (size_t r = 0; r < delta.num_rows(); ++r) {
    for (int c = 0; c < delta.num_cols(); ++c) {
      int32_t code = delta.column(c).code_at(r);
      UAE_CHECK_LT(code, table_->column(c).domain())
          << "incremental row outside the trained dictionary of column " << c;
      orig[static_cast<size_t>(c)] = code;
    }
    schema_.EncodeRow(orig, &virt);
    for (int vc = 0; vc < schema_.num_virtual(); ++vc) {
      vcodes[static_cast<size_t>(vc)].push_back(virt[static_cast<size_t>(vc)]);
    }
    ++num_rows_;
  }
  // Unsupervised steps drawn from the new rows only (§4.5).
  size_t n_new = num_rows_ - first_new;
  if (n_new == 0) return;
  const size_t steps = std::max<size_t>(
      1, (n_new + static_cast<size_t>(config_.data_batch) - 1) /
             static_cast<size_t>(config_.data_batch));
  for (int e = 0; e < epochs; ++e) {
    for (size_t s = 0; s < steps; ++s) {
      std::vector<size_t> rows(static_cast<size_t>(
          std::min<size_t>(static_cast<size_t>(config_.data_batch), n_new)));
      for (auto& r : rows) {
        r = first_new + static_cast<size_t>(
                            rng_.UniformInt(0, static_cast<int64_t>(n_new) - 1));
      }
      StepLoss(BuildDataLoss(rows));
    }
  }
}

void Uae::IngestWorkload(const workload::Workload& workload, int epochs) {
  int steps_per_epoch = std::max<int>(
      1, static_cast<int>(workload.size()) / std::max(1, config_.query_batch));
  TrainQuerySteps(workload, epochs * steps_per_epoch);
}

util::Rng Uae::EstimationRng(uint64_t fingerprint) const {
  return util::Rng(util::SplitMix64(config_.seed ^ util::SplitMix64(fingerprint)));
}

double Uae::EstimateSelectivity(const workload::Query& query) const {
  QueryTargets targets = BuildTargets(query, *table_, schema_);
  util::Rng rng = EstimationRng(query.Fingerprint());
  return ProgressiveSample(*model_, targets, config_.ps_samples, &rng);
}

double Uae::EstimateCard(const workload::Query& query) const {
  return EstimateSelectivity(query) * static_cast<double>(num_rows_);
}

std::vector<double> Uae::WavefrontSelectivities(
    std::span<const QueryTargets> targets,
    std::span<const uint64_t> fingerprints) const {
  // All queries advance column-by-column through shared batched forwards over
  // the frozen backend. Per-query RNG purity keeps every element
  // bit-identical to the per-query sampler run on the same stream.
  std::vector<util::Rng> rngs;
  rngs.reserve(fingerprints.size());
  for (uint64_t fp : fingerprints) rngs.push_back(EstimationRng(fp));
  WavefrontConfig wc;
  wc.num_samples = config_.ps_samples;
  return WavefrontSampleSelectivities(*FrozenBackend(), targets, rngs, wc);
}

std::vector<double> Uae::EstimateSelectivities(
    std::span<const workload::Query> queries) const {
  std::vector<QueryTargets> targets;
  std::vector<uint64_t> fingerprints;
  targets.reserve(queries.size());
  fingerprints.reserve(queries.size());
  for (const workload::Query& q : queries) {
    targets.push_back(BuildTargets(q, *table_, schema_));
    fingerprints.push_back(q.Fingerprint());
  }
  return WavefrontSelectivities(targets, fingerprints);
}

std::vector<double> Uae::EstimateCards(
    std::span<const workload::Query> queries) const {
  std::vector<double> cards = EstimateSelectivities(queries);
  for (double& c : cards) c *= static_cast<double>(num_rows_);
  return cards;
}

PsEstimate Uae::EstimateWithError(const workload::Query& query) const {
  QueryTargets targets = BuildTargets(query, *table_, schema_);
  util::Rng rng = EstimationRng(query.Fingerprint());
  return ProgressiveSampleWithError(*model_, targets, config_.ps_samples, &rng);
}

double Uae::EstimateJoinCard(const workload::JoinQuery& query) const {
  UAE_CHECK(universe_ != nullptr);
  QueryTargets targets = BuildJoinTargets(query, *universe_, schema_);
  util::Rng rng = EstimationRng(workload::JoinFingerprint(query));
  double sel = ProgressiveSample(*model_, targets, config_.ps_samples, &rng);
  return sel * static_cast<double>(universe_->full_join_rows);
}

std::vector<double> Uae::EstimateJoinCards(
    std::span<const workload::JoinQuery> queries) const {
  UAE_CHECK(universe_ != nullptr);
  std::vector<QueryTargets> targets;
  std::vector<uint64_t> fingerprints;
  targets.reserve(queries.size());
  fingerprints.reserve(queries.size());
  for (const workload::JoinQuery& q : queries) {
    targets.push_back(BuildJoinTargets(q, *universe_, schema_));
    fingerprints.push_back(workload::JoinFingerprint(q));
  }
  std::vector<double> cards = WavefrontSelectivities(targets, fingerprints);
  for (double& c : cards) c *= static_cast<double>(universe_->full_join_rows);
  return cards;
}

std::vector<std::vector<int32_t>> Uae::Sample(int count) const {
  return SampleTuples(*model_, count, &rng_);
}

util::Status Uae::Save(const std::string& path) const {
  return nn::SaveParams(path, model_->Parameters());
}

util::Status Uae::Load(const std::string& path) {
  auto params = model_->Parameters();
  util::Status st = nn::LoadParams(path, &params);
  InvalidateFrozen();
  return st;
}

}  // namespace uae::core
