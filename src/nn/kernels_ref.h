// Reference (pre-tiling) kernel implementations, kept verbatim from the
// original scalar kernel layer. They are the ground truth for the parity
// tests in tests/nn_kernels_test.cc and the "before" side of the
// bench_micro_nn speedup report; nothing on a hot path should call them.
#pragma once

#include "nn/kernels.h"
#include "nn/mat.h"

namespace uae::nn::ref {

/// C += A(m,k) * B(k,n). Naive triple loop, parallel over rows of A for
/// large problems (the original dispatch heuristic).
void GemmAccum(const Mat& a, const Mat& b, Mat* c);

/// C += A(m,k) * B(n,k)^T. Naive dot-product loop.
void GemmNtAccum(const Mat& a, const Mat& b, Mat* c);

/// C += A(k,m)^T * B(k,n). Fully serial k-outer loop.
void GemmTnAccum(const Mat& a, const Mat& b, Mat* c);

/// out[r,:] = in[r,:] + bias[0,:].
void AddBiasRows(const Mat& in, const Mat& bias, Mat* out);

/// Row-wise softmax, three sequential passes per row.
void SoftmaxRows(const Mat& in, Mat* out);

/// Row-wise log-softmax, sequential passes.
void LogSoftmaxRows(const Mat& in, Mat* out);

}  // namespace uae::nn::ref
