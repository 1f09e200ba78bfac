// Quantized serving snapshots: an int8 inference plane (per-output-channel
// symmetric weight scales, fp32 accumulate) over a frozen UAE, wrapped as a
// ServableModel so it publishes through EstimationService's util::VersionedSlot
// like any generation. Quantization perturbs estimates, so candidates must be
// parity-gated against their fp32 source before serving — see
// serve::PublishQuantizedSnapshot, which reuses the online guard machinery.
#pragma once

#include <memory>

#include "core/uae.h"
#include "core/wavefront.h"

namespace uae::core {

struct QuantizeOptions {
  /// Multiplies every per-channel dequantization scale; 1 is the faithful
  /// conversion. Values far from 1 deliberately corrupt the candidate — the
  /// publish-guard tests drive the refusal path with this.
  float scale_multiplier = 1.f;
};

/// Int8 inference plane over a frozen ResMADE: weights are stored transposed
/// with per-output-channel absmax scales (nn::QuantizeColsAsRows of the
/// pre-masked fp32 weights); forwards run nn::GemmNtQuantAccum with fp32
/// bias/softmax epilogues. Encoders and biases stay fp32 (they are tiny).
class QuantizedMadeBackend : public InferenceBackend {
 public:
  QuantizedMadeBackend(const MadeModel& model, const data::VirtualSchema* schema,
                       const QuantizeOptions& options = {});

  void ForwardProbs(int vc, const nn::Mat& x,
                    WavefrontWorkspace* ws) const override;
  size_t SizeBytes() const override;

 private:
  nn::QuantizedMat w_in_;
  std::vector<nn::QuantizedMat> w1_, w2_;
  std::vector<nn::QuantizedMat> head_w_;
};

/// QuantizedServableModel: an immutable int8 snapshot of a Uae. Estimates run
/// the wavefront sampler over the quantized backend with the same
/// (seed, query-fingerprint) RNG scheme as the source, so results are pure
/// per query (batch- and thread-independent) — just not bit-equal to fp32,
/// which is why publishing is guarded. FineTune returns 0 ("clone still
/// bit-identical"): a frozen snapshot never trains.
class QuantizedUae : public ServableModel {
 public:
  explicit QuantizedUae(const Uae& source, const QuantizeOptions& options = {});

  double EstimateSelectivity(const workload::Query& query) const;
  double EstimateCard(const workload::Query& query) const override;
  std::vector<double> EstimateCards(
      std::span<const workload::Query> queries) const override;
  std::vector<double> EstimateSelectivities(
      std::span<const workload::Query> queries) const;

  /// Join sub-plan estimation is available iff the source Uae had it (i.e. it
  /// was built over a JoinUniverse): the quantized snapshot then serves the
  /// join optimizer through the same wavefront plane, with the RNG seeded
  /// from workload::JoinFingerprint exactly like the fp32 source.
  bool SupportsJoinQueries() const override { return universe_ != nullptr; }
  double EstimateJoinCard(const workload::JoinQuery& query) const override;
  std::vector<double> EstimateJoinCards(
      std::span<const workload::JoinQuery> queries) const override;

  size_t SizeBytes() const override { return backend_->SizeBytes(); }
  size_t num_rows() const override { return num_rows_; }
  uint64_t seed() const override { return config_.seed; }
  /// Shares the immutable backend/schema: a quantized snapshot has no
  /// trainable state, so the "clone" is a cheap aliasing copy.
  std::shared_ptr<ServableModel> CloneServable() const override;
  size_t FineTune(const workload::Workload& workload,
                  const FineTuneSpec& spec) override;

 private:
  QuantizedUae(const QuantizedUae&) = default;

  const data::Table* table_ = nullptr;
  const data::JoinUniverse* universe_ = nullptr;  ///< Null: single-table only.
  UaeConfig config_;
  /// Owned copy shared with clones; backend_ points into it.
  std::shared_ptr<const data::VirtualSchema> schema_;
  std::shared_ptr<const QuantizedMadeBackend> backend_;
  size_t num_rows_ = 0;
};

}  // namespace uae::core
