// Quantized serving path: int8 weight round-trip bounds, quantized-GEMM
// parity against the naive reference kernel, end-to-end q-error degradation
// bounds for a QuantizedUae against its fp32 source, and the publish guard —
// a deliberately corrupted candidate must be refused while the fp32 incumbent
// keeps serving bit-identical answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/quant.h"
#include "core/uae.h"
#include "data/synthetic.h"
#include "nn/kernels.h"
#include "nn/kernels_ref.h"
#include "online/controller.h"
#include "serve/quantize.h"
#include "serve/service.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/metrics.h"

namespace uae {
namespace {

TEST(QuantizeKernelTest, RoundTripErrorBoundedByHalfScalePerRow) {
  util::Rng rng(5);
  nn::Mat w = nn::Mat::Gaussian(37, 53, 0.8f, &rng);
  nn::QuantizedMat qm = nn::QuantizePerRowAbsMax(w);
  ASSERT_EQ(qm.rows, w.rows());
  ASSERT_EQ(qm.cols, w.cols());
  nn::Mat back(w.rows(), w.cols());
  nn::Dequantize(qm, &back);
  for (int r = 0; r < w.rows(); ++r) {
    const float scale = qm.scales[static_cast<size_t>(r)];
    // Symmetric absmax: scale spans the row's largest magnitude.
    float absmax = 0.f;
    for (int c = 0; c < w.cols(); ++c) absmax = std::max(absmax, std::abs(w.at(r, c)));
    EXPECT_NEAR(scale * 127.f, absmax, 1e-4f) << "row " << r;
    // Round-to-nearest: every element reconstructs within half a step.
    for (int c = 0; c < w.cols(); ++c) {
      EXPECT_LE(std::abs(back.at(r, c) - w.at(r, c)), 0.5f * scale + 1e-7f)
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(QuantizeKernelTest, ZeroRowsQuantizeExactly) {
  nn::Mat w(4, 9);  // All-zero rows must not divide by zero and round-trip to 0.
  nn::QuantizedMat qm = nn::QuantizePerRowAbsMax(w);
  nn::Mat back(4, 9);
  nn::Dequantize(qm, &back);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 9; ++c) EXPECT_EQ(back.at(r, c), 0.f);
  }
}

TEST(QuantizeKernelTest, QuantGemmMatchesReferenceKernel) {
  // The tiled int8 GEMM reorders the k-reduction relative to the naive
  // reference; values must agree within accumulation tolerance.
  util::Rng rng(11);
  const std::tuple<int, int, int> shapes[] = {{1, 40, 33}, {5, 64, 17}, {23, 96, 64}};
  for (auto [m, k, n] : shapes) {
    nn::Mat a = nn::Mat::Gaussian(m, k, 1.0f, &rng);
    nn::Mat w = nn::Mat::Gaussian(k, n, 0.5f, &rng);
    nn::QuantizedMat qw = nn::QuantizeColsAsRows(w);
    ASSERT_EQ(qw.rows, n);
    ASSERT_EQ(qw.cols, k);
    nn::Mat c_opt(m, n);
    nn::Mat c_ref(m, n);
    nn::GemmNtQuantAccum(a, qw, &c_opt);
    nn::ref::GemmNtQuantAccum(a, qw, &c_ref);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        EXPECT_NEAR(c_opt.at(i, j), c_ref.at(i, j),
                    1e-4f * (1.f + std::abs(c_ref.at(i, j))))
            << m << "x" << k << "x" << n << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(QuantizeKernelTest, QuantGemmApproximatesFp32Gemm) {
  util::Rng rng(13);
  const int m = 8, k = 64, n = 48;
  nn::Mat a = nn::Mat::Gaussian(m, k, 1.0f, &rng);
  nn::Mat w = nn::Mat::Gaussian(k, n, 0.5f, &rng);
  nn::Mat c_fp(m, n);
  nn::GemmAccum(a, w, &c_fp);
  nn::Mat c_q(m, n);
  nn::GemmNtQuantAccum(a, nn::QuantizeColsAsRows(w), &c_q);
  // Worst-case dequant error per output: k * (scale/2) * mean|a|; use a loose
  // empirical bound that still catches a broken scale or transpose.
  double worst = 0.0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      worst = std::max(worst, static_cast<double>(std::abs(c_q.at(i, j) - c_fp.at(i, j))));
    }
  }
  EXPECT_LT(worst, 0.25) << "int8 GEMM drifted far from fp32";
}

struct QuantFixture {
  data::Table table;
  core::Uae uae;
  workload::Workload holdout;

  QuantFixture() : table(data::TinyCorrelated(1500, 3)), uae(table, Config()) {
    uae.TrainDataEpochs(3);
    workload::GeneratorConfig gc;
    gc.min_filters = 1;
    gc.max_filters = 3;
    workload::QueryGenerator gen(table, gc, 53);
    holdout = gen.GenerateLabeled(48, nullptr);
  }

  static core::UaeConfig Config() {
    core::UaeConfig cfg;
    cfg.hidden = 32;
    cfg.ps_samples = 64;
    cfg.seed = 71;
    return cfg;
  }

  std::vector<double> MedianQErrors(const core::ServableModel& model) const {
    std::vector<double> qerrs;
    for (const auto& lq : holdout) {
      qerrs.push_back(workload::QError(model.EstimateCard(lq.query), lq.card));
    }
    return qerrs;
  }
};

QuantFixture& Shared() {
  static QuantFixture* f = new QuantFixture();
  return *f;
}

TEST(QuantizedUaeTest, EndToEndQErrorDegradationBounded) {
  QuantFixture& f = Shared();
  core::QuantizedUae quant(f.uae);
  std::vector<double> fp32 = f.MedianQErrors(f.uae);
  std::vector<double> int8 = f.MedianQErrors(quant);
  const double fp32_median = util::Quantile(fp32, 0.5);
  const double int8_median = util::Quantile(int8, 0.5);
  // Faithful int8 must stay close to its source on the seeded workload; 1.25x
  // median headroom is far above observed drift but catches real breakage.
  EXPECT_LE(int8_median, fp32_median * 1.25)
      << "fp32 median " << fp32_median << " int8 median " << int8_median;
  // And it must genuinely be the compressed plane: ~4x smaller weights.
  EXPECT_LT(quant.SizeBytes(), f.uae.SizeBytes());
}

TEST(QuantizedUaeTest, CloneSharesBackendAndStaysPure) {
  QuantFixture& f = Shared();
  auto quant = std::make_shared<core::QuantizedUae>(f.uae);
  std::shared_ptr<core::ServableModel> clone = quant->CloneServable();
  const auto& q = f.holdout[0].query;
  EXPECT_EQ(clone->EstimateCard(q), quant->EstimateCard(q));
  EXPECT_EQ(clone->SizeBytes(), quant->SizeBytes());
  // Frozen snapshot: fine-tuning routes nothing.
  core::FineTuneSpec spec;
  EXPECT_EQ(clone->FineTune(f.holdout, spec), 0u);
}

TEST(QuantizePublishTest, FaithfulCandidatePublishes) {
  QuantFixture& f = Shared();
  auto fp32 = std::shared_ptr<const core::Uae>(f.uae.Clone());
  serve::EstimationService service(fp32);
  const uint64_t gen0 = service.CurrentGeneration();

  serve::QuantizedPublishOptions opts;
  opts.guard_max_ratio = 1.25;  // Same headroom as the degradation bound.
  auto candidate = std::make_shared<core::QuantizedUae>(f.uae);
  serve::QuantizedPublishResult res =
      serve::PublishQuantizedSnapshot(&service, candidate, f.holdout, opts);
  EXPECT_TRUE(res.published);
  EXPECT_EQ(res.generation, gen0 + 1);
  EXPECT_EQ(service.CurrentGeneration(), gen0 + 1);
  // The served plane is now the quantized snapshot.
  const auto& q = f.holdout[0].query;
  EXPECT_EQ(service.EstimateCard(q), candidate->EstimateCard(q));
}

TEST(QuantizePublishTest, CorruptedCandidateIsRefusedAndIncumbentKeepsServing) {
  QuantFixture& f = Shared();
  auto fp32 = std::shared_ptr<const core::Uae>(f.uae.Clone());
  serve::EstimationService service(fp32);
  const uint64_t gen0 = service.CurrentGeneration();

  // Blow up every dequantization scale: estimates become garbage, the holdout
  // guard must refuse, and nothing about the served snapshot may change.
  core::QuantizeOptions bad;
  bad.scale_multiplier = 64.f;
  auto candidate = std::make_shared<core::QuantizedUae>(f.uae, bad);
  serve::QuantizedPublishResult res =
      serve::PublishQuantizedSnapshot(&service, candidate, f.holdout);
  EXPECT_FALSE(res.published);
  EXPECT_EQ(res.generation, 0u);
  EXPECT_GT(res.candidate_median, res.incumbent_median);
  EXPECT_EQ(service.CurrentGeneration(), gen0);

  // Incumbent answers stay bit-identical to the pre-publish fp32 estimates.
  for (size_t i = 0; i < 8; ++i) {
    const auto& q = f.holdout[i].query;
    EXPECT_EQ(service.EstimateCard(q), fp32->EstimateCard(q)) << "query " << i;
  }

  // An empty holdout proves nothing and must also refuse.
  serve::QuantizedPublishResult empty_res = serve::PublishQuantizedSnapshot(
      &service, std::make_shared<core::QuantizedUae>(f.uae), {});
  EXPECT_FALSE(empty_res.published);
  EXPECT_EQ(service.CurrentGeneration(), gen0);
}

}  // namespace
}  // namespace uae
