#include "estimators/mscn.h"

#include <algorithm>
#include <cmath>

#include "nn/ops.h"
#include "nn/serialize.h"
#include "workload/executor.h"

namespace uae::estimators {

namespace {
// Operator one-hot slots for featurization.
enum PredOp { kOpEq = 0, kOpLe, kOpGe, kOpNeq, kOpIn, kNumOps };
}  // namespace

MscnEstimator::MscnEstimator(const data::Table& table, const MscnConfig& config)
    : table_(&table), config_(config), table_rows_(table.num_rows()) {
  pred_width_ = table.num_cols() + kNumOps + 1;  // col one-hot + op one-hot + value.
  max_preds_ = table.num_cols() * 2;             // A range uses two predicates.
  util::Rng rng(config.seed);
  pred_fc1_ = nn::Linear(pred_width_, config.hidden, "mscn.pred1", &rng);
  pred_fc2_ = nn::Linear(config.hidden, config.hidden, "mscn.pred2", &rng);
  out_fc1_ = nn::Linear(config.hidden + config.extra_dim, config.hidden, "mscn.out1",
                        &rng);
  out_fc2_ = nn::Linear(config.hidden, 1, "mscn.out2", &rng);
}

MscnEstimator::QueryFeatures MscnEstimator::Featurize(
    const workload::Query& query) const {
  QueryFeatures qf;
  qf.preds = nn::Mat(max_preds_, pred_width_);
  int slot = 0;
  auto add = [&](int col, PredOp op, double value01) {
    if (slot >= max_preds_) return;
    float* row = qf.preds.row(slot++);
    row[col] = 1.f;
    row[table_->num_cols() + op] = 1.f;
    row[table_->num_cols() + kNumOps] = static_cast<float>(value01);
  };
  for (int c = 0; c < query.num_cols(); ++c) {
    const workload::Constraint& cons = query.constraint(c);
    if (!cons.IsActive()) continue;
    double domain = static_cast<double>(table_->column(c).domain());
    switch (cons.kind) {
      case workload::Constraint::Kind::kRange:
        if (cons.lo == cons.hi) {
          add(c, kOpEq, cons.lo / domain);
        } else {
          if (cons.lo > 0) add(c, kOpGe, cons.lo / domain);
          if (cons.hi < table_->column(c).domain() - 1) add(c, kOpLe, cons.hi / domain);
          if (cons.lo <= 0 && cons.hi >= table_->column(c).domain() - 1) {
            add(c, kOpGe, 0.0);
          }
        }
        break;
      case workload::Constraint::Kind::kNotEqual:
        add(c, kOpNeq, cons.neq / domain);
        break;
      case workload::Constraint::Kind::kIn:
        add(c, kOpIn, static_cast<double>(cons.in_codes.size()) / domain);
        break;
      case workload::Constraint::Kind::kNone:
        break;
    }
  }
  qf.num_preds = std::max(slot, 1);
  return qf;
}

nn::Tensor MscnEstimator::Forward(
    const std::vector<const QueryFeatures*>& batch,
    const std::vector<const std::vector<float>*>& extras) const {
  const int b = static_cast<int>(batch.size());
  nn::Mat all_preds(b * max_preds_, pred_width_);
  for (int i = 0; i < b; ++i) {
    std::memcpy(all_preds.row(i * max_preds_), batch[static_cast<size_t>(i)]->preds.data(),
                sizeof(float) * batch[static_cast<size_t>(i)]->preds.size());
  }
  nn::Tensor x = nn::Constant(std::move(all_preds));
  nn::Tensor h = pred_fc2_.ForwardRelu(pred_fc1_.ForwardRelu(x));
  // Average pooling over the *actual* predicates: SegmentMean over padded
  // slots sums/max_preds; rescale by max_preds/num_preds per query.
  nn::Tensor pooled_rows;
  {
    // SegmentMean works on [m,1]; pool each hidden dim via matmul with a
    // constant pooling matrix instead: P [b*max_preds -> b] grouped mean.
    // Implemented as MulConstMat row-scale + SegmentSum emulation:
    // reshape trick: RowSum is per-row; we need per-group column-wise mean.
    // Use a dedicated pooling matmul: pool [b, b*max_preds] x h.
    nn::Mat pool(b, b * max_preds_);
    for (int i = 0; i < b; ++i) {
      float inv = 1.f / static_cast<float>(batch[static_cast<size_t>(i)]->num_preds);
      for (int p = 0; p < max_preds_; ++p) pool.at(i, i * max_preds_ + p) = inv;
    }
    pooled_rows = nn::MatMul(nn::Constant(std::move(pool)), h);
  }
  nn::Tensor features = pooled_rows;
  if (config_.extra_dim > 0) {
    nn::Mat extra_mat(b, config_.extra_dim);
    for (int i = 0; i < b; ++i) {
      UAE_CHECK(extras[static_cast<size_t>(i)] != nullptr &&
                static_cast<int>(extras[static_cast<size_t>(i)]->size()) ==
                    config_.extra_dim)
          << "MSCN extra features missing or of wrong width";
      std::memcpy(extra_mat.row(i), extras[static_cast<size_t>(i)]->data(),
                  sizeof(float) * static_cast<size_t>(config_.extra_dim));
    }
    features = nn::ConcatCols({pooled_rows, nn::Constant(std::move(extra_mat))});
  }
  return out_fc2_.Forward(out_fc1_.ForwardRelu(features));
}

void MscnEstimator::Train(const workload::Workload& workload,
                          const std::vector<std::vector<float>>* extras) {
  UAE_CHECK(!workload.empty());
  if (config_.extra_dim > 0) {
    UAE_CHECK(extras != nullptr && extras->size() == workload.size());
  }
  // Featurize once; compute normalization range of log selectivities.
  std::vector<QueryFeatures> features;
  features.reserve(workload.size());
  min_log_ = 0.0;
  double floor_log = std::log(1.0 / static_cast<double>(table_rows_)) - 1.0;
  max_log_ = floor_log;
  std::vector<double> logs;
  logs.reserve(workload.size());
  for (const auto& lq : workload) {
    features.push_back(Featurize(lq.query));
    double l = std::log(std::max(lq.selectivity, std::exp(floor_log)));
    logs.push_back(l);
    min_log_ = std::min(min_log_, l);
    max_log_ = std::max(max_log_, l);
  }
  if (max_log_ - min_log_ < 1e-6) max_log_ = min_log_ + 1.0;

  nn::Adam adam(Parameters(), config_.lr);
  util::Rng rng(config_.seed + 1);

  const int steps_per_epoch = std::max<int>(
      1, static_cast<int>(workload.size()) / config_.batch);
  for (int e = 0; e < config_.epochs; ++e) {
    for (int s = 0; s < steps_per_epoch; ++s) {
      std::vector<const QueryFeatures*> batch;
      std::vector<const std::vector<float>*> batch_extras;
      nn::Mat target(std::min<int>(config_.batch, static_cast<int>(workload.size())), 1);
      for (int i = 0; i < target.rows(); ++i) {
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(workload.size()) - 1));
        batch.push_back(&features[pick]);
        batch_extras.push_back(extras ? &(*extras)[pick] : nullptr);
        target.at(i, 0) =
            static_cast<float>((logs[pick] - min_log_) / (max_log_ - min_log_));
      }
      nn::Tensor pred = Forward(batch, batch_extras);
      nn::Tensor loss = nn::MseLoss(pred, target);
      nn::Backward(loss);
      adam.Step();
      adam.ZeroGrad();
    }
  }
}

double MscnEstimator::EstimateCardExtra(const workload::Query& query,
                                        const std::vector<float>& extra) const {
  // No constraint selects every row. The network never sees an empty
  // predicate set in training and caps its answer at the largest training
  // selectivity, so it would answer such a query with a handful of rows.
  if (query.NumConstrained() == 0) return static_cast<double>(table_rows_);
  nn::NoGradGuard no_grad;
  QueryFeatures qf = Featurize(query);
  std::vector<const std::vector<float>*> extras = {&extra};
  nn::Tensor out = Forward({&qf}, extras);
  double norm = std::clamp<double>(out->value().at(0, 0), 0.0, 1.0);
  double sel = std::exp(norm * (max_log_ - min_log_) + min_log_);
  return sel * static_cast<double>(table_rows_);
}

double MscnEstimator::EstimateCard(const workload::Query& query) const {
  UAE_CHECK_EQ(config_.extra_dim, 0) << "estimator requires extra features";
  return EstimateCardExtra(query, {});
}

std::vector<nn::NamedParam> MscnEstimator::Parameters() const {
  std::vector<nn::NamedParam> params;
  pred_fc1_.CollectParams(&params);
  pred_fc2_.CollectParams(&params);
  out_fc1_.CollectParams(&params);
  out_fc2_.CollectParams(&params);
  return params;
}

size_t MscnEstimator::SizeBytes() const { return nn::ParamBytes(Parameters()); }

MscnSamplingEstimator::MscnSamplingEstimator(const data::Table& table,
                                             size_t sample_rows, MscnConfig config) {
  util::Rng rng(config.seed + 7);
  size_t k = std::min(sample_rows, table.num_rows());
  std::vector<size_t> rows = rng.SampleWithoutReplacement(table.num_rows(), k);
  std::vector<data::Column> cols;
  for (int c = 0; c < table.num_cols(); ++c) {
    std::vector<int32_t> codes;
    codes.reserve(k);
    for (size_t r : rows) codes.push_back(table.column(c).code_at(r));
    cols.push_back(data::Column::FromCodes(table.column(c).name(), std::move(codes),
                                           table.column(c).domain()));
  }
  sample_ = data::Table(table.name() + "_mscn_sample", std::move(cols));
  config.extra_dim = 2;
  mscn_ = std::make_shared<MscnEstimator>(table, config);
}

std::vector<float> MscnSamplingEstimator::SampleFeatures(
    const workload::Query& query) const {
  int64_t hits = workload::ExecuteCount(sample_, query);
  float frac =
      static_cast<float>(hits) / static_cast<float>(sample_.num_rows());
  return {frac, std::log1p(static_cast<float>(hits))};
}

void MscnSamplingEstimator::Train(const workload::Workload& workload) {
  std::vector<std::vector<float>> extras;
  extras.reserve(workload.size());
  for (const auto& lq : workload) extras.push_back(SampleFeatures(lq.query));
  mscn_->Train(workload, &extras);
}

double MscnSamplingEstimator::EstimateCard(const workload::Query& query) const {
  return mscn_->EstimateCardExtra(query, SampleFeatures(query));
}

size_t MscnSamplingEstimator::SizeBytes() const {
  return mscn_->SizeBytes() +
         sample_.num_rows() * static_cast<size_t>(sample_.num_cols()) *
             sizeof(int32_t);
}

}  // namespace uae::estimators
