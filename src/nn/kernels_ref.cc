#include "nn/kernels_ref.h"

#include <algorithm>
#include <cmath>

#include "util/threadpool.h"

namespace uae::nn::ref {

namespace {
// Below this many multiply-adds a parallel launch costs more than it saves.
constexpr size_t kParallelFlops = 1u << 20;
}  // namespace

void GemmAccum(const Mat& a, const Mat& b, Mat* c) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  UAE_CHECK_EQ(b.rows(), k);
  UAE_CHECK(c->rows() == m && c->cols() == n) << a.ShapeString() << b.ShapeString();
  auto body = [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      float* crow = c->row(static_cast<int>(i));
      const float* arow = a.row(static_cast<int>(i));
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.f) continue;
        const float* brow = b.row(p);
        for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  size_t flops = size_t(m) * k * n;
  if (flops >= kParallelFlops && m > 1) {
    util::ParallelFor(0, static_cast<size_t>(m), body, /*min_parallel_size=*/1);
  } else {
    body(0, static_cast<size_t>(m));
  }
}

void GemmNtAccum(const Mat& a, const Mat& b, Mat* c) {
  const int m = a.rows(), k = a.cols(), n = b.rows();
  UAE_CHECK_EQ(b.cols(), k);
  UAE_CHECK(c->rows() == m && c->cols() == n);
  auto body = [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a.row(static_cast<int>(i));
      float* crow = c->row(static_cast<int>(i));
      for (int j = 0; j < n; ++j) {
        const float* brow = b.row(j);
        float acc = 0.f;
        for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
    }
  };
  size_t flops = size_t(m) * k * n;
  if (flops >= kParallelFlops && m > 1) {
    util::ParallelFor(0, static_cast<size_t>(m), body, 1);
  } else {
    body(0, static_cast<size_t>(m));
  }
}

void GemmTnAccum(const Mat& a, const Mat& b, Mat* c) {
  const int k = a.rows(), m = a.cols(), n = b.cols();
  UAE_CHECK_EQ(b.rows(), k);
  UAE_CHECK(c->rows() == m && c->cols() == n);
  // Serial over the shared k dimension; rows of C are written once per k.
  for (int p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.f) continue;
      float* crow = c->row(i);
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void AddBiasRows(const Mat& in, const Mat& bias, Mat* out) {
  UAE_CHECK_EQ(bias.rows(), 1);
  UAE_CHECK_EQ(bias.cols(), in.cols());
  UAE_CHECK(out->SameShape(in));
  const float* b = bias.row(0);
  for (int r = 0; r < in.rows(); ++r) {
    const float* src = in.row(r);
    float* dst = out->row(r);
    for (int c = 0; c < in.cols(); ++c) dst[c] = src[c] + b[c];
  }
}

void SoftmaxRows(const Mat& in, Mat* out) {
  UAE_CHECK(out->SameShape(in));
  for (int r = 0; r < in.rows(); ++r) {
    const float* src = in.row(r);
    float* dst = out->row(r);
    float mx = src[0];
    for (int c = 1; c < in.cols(); ++c) mx = std::max(mx, src[c]);
    float sum = 0.f;
    for (int c = 0; c < in.cols(); ++c) {
      dst[c] = std::exp(src[c] - mx);
      sum += dst[c];
    }
    float inv = 1.f / sum;
    for (int c = 0; c < in.cols(); ++c) dst[c] *= inv;
  }
}

void LogSoftmaxRows(const Mat& in, Mat* out) {
  UAE_CHECK(out->SameShape(in));
  for (int r = 0; r < in.rows(); ++r) {
    const float* src = in.row(r);
    float* dst = out->row(r);
    float mx = src[0];
    for (int c = 1; c < in.cols(); ++c) mx = std::max(mx, src[c]);
    float sum = 0.f;
    for (int c = 0; c < in.cols(); ++c) sum += std::exp(src[c] - mx);
    float lse = mx + std::log(sum);
    for (int c = 0; c < in.cols(); ++c) dst[c] = src[c] - lse;
  }
}

}  // namespace uae::nn::ref
