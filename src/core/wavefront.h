// Wavefront progressive sampling: every in-flight (query x sample) lane
// advances one virtual column per step through a single batched trunk forward,
// instead of one model forward per query per column. Lanes that hit a
// zero-mass column exit early (they are dropped from subsequent forwards), and
// each query keeps its own deterministic RNG stream, so estimates are
// bit-identical to the per-query sampler in core/progressive.cc for any
// wavefront width and thread count:
//
//   - the per-lane sampling arithmetic is the shared core::SampleLane;
//   - the trunk/head kernels are row-deterministic (output row i depends only
//     on input row i, never on batch composition or thread count);
//   - RNG draws per query happen in the legacy order: constrained virtual
//     columns ascending, live lanes ascending, dead lanes consuming nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/made.h"
#include "core/progressive.h"
#include "core/targets.h"
#include "nn/kernels.h"
#include "nn/mat.h"
#include "util/rng.h"

namespace uae::core {

/// Reusable scratch for frozen forward passes. One per wave worker, so
/// steady-state steps allocate nothing once shapes have stabilized.
struct WavefrontWorkspace {
  nn::Mat x;      ///< Gathered live-lane inputs [m, input_width].
  nn::Mat h;      ///< Trunk activation [m, hidden].
  nn::Mat t0;     ///< relu(h) scratch.
  nn::Mat t1;     ///< fc1 output scratch.
  nn::Mat t2;     ///< fc2 output scratch.
  nn::Mat probs;  ///< Head probabilities [m, vdomain(vc)].
};

/// A frozen, immutable fp32 inference plane over a ResMADE model: snapshots
/// the encoders, biases, layout and pre-masked weights (W ⊙ M computed once,
/// bitwise the same product MaskedMatMul forms per call) so forwards run as
/// the exact kernel sequence of MadeModel::Trunk/HeadProbs with no autograd
/// graph and no per-op allocation. Row-deterministic: probs row i depends only
/// on x row i, for any batch composition and thread count — that property is
/// what lets the wavefront batch lanes of unrelated queries together, and the
/// replay is what keeps a wavefront estimate bit-identical to the per-query
/// sampler's.
class FrozenMadeBackend {
 public:
  /// Copies everything it needs from `model` except the schema, which it
  /// references: model.schema() must outlive this backend.
  explicit FrozenMadeBackend(const MadeModel& model);

  const data::VirtualSchema& schema() const { return *schema_; }
  int num_vcols() const { return schema_->num_virtual(); }
  /// Total encoded input width (sum of per-vcol encoder widths).
  int input_width() const { return input_width_; }
  /// Column offset of vcol `vc` inside an encoded input row.
  int col_offset(int vc) const { return offsets_[static_cast<size_t>(vc)]; }
  /// Encoded width of vcol `vc`.
  int col_width(int vc) const { return widths_[static_cast<size_t>(vc)]; }
  /// Encoder row for `code` (code == vdomain(vc) is the wildcard token);
  /// length col_width(vc). Bitwise-equal to the model's EncodeHard rows.
  const float* EncoderRow(int vc, int32_t code) const {
    return encoders_[static_cast<size_t>(vc)].row(code);
  }

  /// Writes softmaxed head-`vc` probabilities for the gathered lane rows of
  /// `x` into ws->probs ([x.rows(), vdomain(vc)]), using ws for
  /// intermediates. Retains no pointers into ws across calls.
  void ForwardProbs(int vc, const nn::Mat& x, WavefrontWorkspace* ws) const;

 private:
  const data::VirtualSchema* schema_;
  std::vector<nn::Mat> encoders_;  ///< Per vcol, (domain+1) x width copies.
  std::vector<int> offsets_;
  std::vector<int> widths_;
  int input_width_ = 0;
  int hidden_ = 0;
  nn::Mat w_in_;                  ///< Pre-masked input weights [in, hidden].
  nn::Mat b_in_;                  ///< Input-layer bias [1, hidden].
  std::vector<nn::Mat> w1_, w2_;  ///< Pre-masked block weights, per block.
  std::vector<nn::Mat> b1_, b2_;  ///< Residual-block biases, per block.
  std::vector<nn::Mat> head_w_;   ///< Pre-masked head weights, per vcol.
  std::vector<nn::Mat> head_b_;   ///< Head biases, per vcol.
};

struct WavefrontConfig {
  int num_samples = 200;  ///< Progressive-sampling lanes per query.
  /// Queries advanced together per wave. Every width gives bit-identical
  /// estimates; the width only trades GEMM batch size against memory.
  int wave_width = 8;
};

/// Runs progressive sampling for all queries, `wave_width` queries at a time,
/// every step batched through one backend forward. `rngs[i]` must be the
/// stream the per-query sampler would use for `targets[i]`; element i of the
/// result is then bit-identical to
/// ProgressiveSample(model, targets[i], num_samples, &rngs[i]) when `backend`
/// is frozen from the same model. Waves are independent and may run on pool
/// workers; results do not depend on the thread count.
std::vector<double> WavefrontSampleSelectivities(const FrozenMadeBackend& backend,
                                                 std::span<const QueryTargets> targets,
                                                 std::span<util::Rng> rngs,
                                                 const WavefrontConfig& config);

}  // namespace uae::core
