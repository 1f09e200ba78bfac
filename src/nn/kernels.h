// Low-level compute kernels. All GEMM variants *accumulate* into the output
// (C += ...), which is what backward passes need; callers zero C first when
// they want a plain product.
//
// Implementation notes (see README "Performance" for the full story):
//  - GEMMs are cache-blocked (k-panels of kGemmKBlock) and register-tiled
//    (kGemmRowTile x kGemmColTile accumulator tiles) so the hot loops compile
//    to wide FMA sequences; C is read/written once per k-panel instead of
//    once per k step.
//  - All three variants share one flop-threshold dispatch that splits work
//    over globally-aligned row blocks of C, so results are bit-identical for
//    any thread count. GemmTnAccum is parallelized over the output-row
//    dimension with per-thread accumulation (each thread owns its C rows).
//  - Tiling reorders float sums relative to the naive kernels in
//    nn/kernels_ref.h; parity is tolerance-bounded (see tests), while any
//    single binary remains deterministic run-to-run.
#pragma once

#include "nn/mat.h"

namespace uae::nn {

/// C rows per register tile (MR). Row blocks are globally aligned to this,
/// which is what makes the parallel split deterministic.
inline constexpr int kGemmRowTile = 4;

/// Columns per register tile (NR): one accumulator tile is
/// kGemmRowTile x kGemmColTile floats held in vector registers across a
/// whole k-panel. Wider on AVX-512 where 32 floats fit in two zmm registers.
#if defined(__AVX512F__)
inline constexpr int kGemmColTile = 32;
#else
inline constexpr int kGemmColTile = 16;
#endif

/// k-panel depth (KC): the A/B working set touched between two consecutive
/// read-modify-writes of a C tile.
inline constexpr int kGemmKBlock = 256;

/// Independent partial-sum lanes used by dot-product style reductions
/// (GemmNtAccum, softmax row sums). Power of two.
inline constexpr int kReduceLanes = 16;

/// C += A(m,k) * B(k,n). Parallelized over row blocks of C for large problems.
void GemmAccum(const Mat& a, const Mat& b, Mat* c);

/// C += A(m,k) * B(n,k)^T.
void GemmNtAccum(const Mat& a, const Mat& b, Mat* c);

/// C += A(k,m)^T * B(k,n).
void GemmTnAccum(const Mat& a, const Mat& b, Mat* c);

/// out[r,:] = in[r,:] + bias[0,:] for every row.
void AddBiasRows(const Mat& in, const Mat& bias, Mat* out);

/// Fused epilogue: out[r,:] = max(in[r,:] + bias[0,:], 0). One pass over the
/// activation instead of the two an AddBiasRows + ReluInplace pair costs.
void AddBiasReluRows(const Mat& in, const Mat& bias, Mat* out);

/// In-place ReLU.
void ReluInplace(Mat* m);

/// Row-wise softmax: out[r,:] = softmax(in[r,:]). Stable. `in` and `*out`
/// may alias (see SoftmaxRowsInplace).
void SoftmaxRows(const Mat& in, Mat* out);

/// Row-wise softmax overwriting `m` — saves the extra output matrix and one
/// pass over the activation on the progressive-sampling hot path.
void SoftmaxRowsInplace(Mat* m);

/// Row-wise log-softmax. Stable.
void LogSoftmaxRows(const Mat& in, Mat* out);

/// Branch-free polynomial exp(x), accurate to ~2e-7 relative over the range
/// softmax can produce (inputs clamped to [-87, 88]). Pure float arithmetic
/// (no libm call), so loops over it auto-vectorize — this is what makes the
/// softmax kernels wide instead of serialized on scalar expf.
float FastExpf(float x);

/// out = a (elementwise) * b.
void MulElem(const Mat& a, const Mat& b, Mat* out);

/// out += a (elementwise) * b — used by backward passes.
void MulElemAccum(const Mat& a, const Mat& b, Mat* out);

}  // namespace uae::nn
