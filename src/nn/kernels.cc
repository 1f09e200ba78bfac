#include "nn/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/threadpool.h"

namespace uae::nn {

namespace {

// Below this many multiply-adds a parallel launch costs more than it saves.
// One threshold gates the parallel path of all three GEMM variants.
constexpr size_t kParallelFlops = 1u << 20;

static_assert((kReduceLanes & (kReduceLanes - 1)) == 0,
              "lane tails index with & (kReduceLanes - 1)");

// Unified dispatch: runs `body` over register-tile row blocks of C, in
// parallel when the problem is big enough. Block g always owns C rows
// [g*kGemmRowTile, (g+1)*kGemmRowTile), independent of how ParallelFor chunks
// the block range, so every output element sees the same accumulation order
// for any thread count.
template <typename Body>
void ForEachRowBlock(size_t flops, int rows, const Body& body) {
  const size_t blocks =
      (static_cast<size_t>(rows) + kGemmRowTile - 1) / kGemmRowTile;
  if (flops >= kParallelFlops && blocks > 1) {
    util::ParallelFor(0, blocks, body, /*min_parallel_size=*/1);
  } else {
    body(0, blocks);
  }
}

inline float RowMax(const float* x, int nc) {
  float mx = x[0];
  for (int c = 1; c < nc; ++c) mx = std::max(mx, x[c]);
  return mx;
}

// See FastExpf in kernels.h. exp(x) = 2^n * e^f with n = round(x*log2(e)):
// the integer power is rounded with the magic-constant trick (no SSE4 round
// instruction needed), the residual f = x - n*ln2 is formed with a split
// hi/lo ln2 so no precision is lost at large |x|, e^f comes from a degree-5
// polynomial on [-ln2/2, ln2/2] (Cephes-style), and 2^n is spliced into the
// float exponent bits.
inline float FastExpfImpl(float x) {
  x = std::min(88.0f, std::max(-87.0f, x));
  const float z = x * 1.44269504088896341f;  // x * log2(e)
  // Round-to-nearest of |z| < 2^22 in pure float arithmetic: 1.5 * 2^23.
  const float zi = (z + 12582912.0f) - 12582912.0f;
  float f = x - zi * 0.693359375f;       // ln2 high bits (exact product)
  f -= zi * -2.12194440e-4f;             // ln2 low bits
  float p = 1.9875691500e-4f;
  p = p * f + 1.3981999507e-3f;
  p = p * f + 8.3334519073e-3f;
  p = p * f + 4.1665795894e-2f;
  p = p * f + 1.6666665459e-1f;
  p = p * f + 5.0000001201e-1f;
  p = p * (f * f) + f + 1.0f;
  const int32_t n = static_cast<int32_t>(zi);
  const float scale = std::bit_cast<float>((n + 127) << 23);
  return p * scale;
}

// ---- GemmAccum / GemmTnAccum microkernels ---------------------------------
//
// Both share the same register-tiled shape: a kGemmRowTile x kGemmColTile
// accumulator tile lives in vector registers across a whole k-panel and C is
// read/modified/written once per panel. They differ only in where the four
// A values per k step come from: GemmAccum reads down four rows of A,
// GemmTnAccum reads four adjacent columns (contiguous in the row-major A of
// shape (k, m)). Within a panel the k index ascends for every output element
// in tile, tail and single-row paths alike, so per-element results do not
// depend on how rows were grouped into blocks.

// C[i0..i0+4) += A[i0..i0+4, :] * B.
void GemmPanel4(const Mat& a, const Mat& b, int i0, Mat* c) {
  const int k = a.cols(), n = b.cols();
  const float* a0 = a.row(i0);
  const float* a1 = a.row(i0 + 1);
  const float* a2 = a.row(i0 + 2);
  const float* a3 = a.row(i0 + 3);
  float* c0 = c->row(i0);
  float* c1 = c->row(i0 + 1);
  float* c2 = c->row(i0 + 2);
  float* c3 = c->row(i0 + 3);
  for (int p0 = 0; p0 < k; p0 += kGemmKBlock) {
    const int p1 = std::min(p0 + kGemmKBlock, k);
    int j = 0;
    for (; j + kGemmColTile <= n; j += kGemmColTile) {
      float t0[kGemmColTile] = {}, t1[kGemmColTile] = {};
      float t2[kGemmColTile] = {}, t3[kGemmColTile] = {};
      for (int p = p0; p < p1; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        // Quad-sparse skip: one-hot/binary-encoded inputs give A long runs of
        // all-zero columns, and wildcard batches repeat one row pattern.
        if (av0 == 0.f && av1 == 0.f && av2 == 0.f && av3 == 0.f) continue;
        const float* bp = b.row(p) + j;
        for (int l = 0; l < kGemmColTile; ++l) {
          const float bv = bp[l];
          t0[l] += av0 * bv;
          t1[l] += av1 * bv;
          t2[l] += av2 * bv;
          t3[l] += av3 * bv;
        }
      }
      for (int l = 0; l < kGemmColTile; ++l) {
        c0[j + l] += t0[l];
        c1[j + l] += t1[l];
        c2[j + l] += t2[l];
        c3[j + l] += t3[l];
      }
    }
    for (; j < n; ++j) {  // column tail: same per-element k order as the tile
      float t0 = 0.f, t1 = 0.f, t2 = 0.f, t3 = 0.f;
      for (int p = p0; p < p1; ++p) {
        const float bv = b.row(p)[j];
        t0 += a0[p] * bv;
        t1 += a1[p] * bv;
        t2 += a2[p] * bv;
        t3 += a3[p] * bv;
      }
      c0[j] += t0;
      c1[j] += t1;
      c2[j] += t2;
      c3[j] += t3;
    }
  }
}

// C[i] += A[i, :] * B — remainder rows past the last full quad.
void GemmPanel1(const Mat& a, const Mat& b, int i, Mat* c) {
  const int k = a.cols(), n = b.cols();
  const float* arow = a.row(i);
  float* crow = c->row(i);
  for (int p0 = 0; p0 < k; p0 += kGemmKBlock) {
    const int p1 = std::min(p0 + kGemmKBlock, k);
    int j = 0;
    for (; j + kGemmColTile <= n; j += kGemmColTile) {
      float t[kGemmColTile] = {};
      for (int p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.f) continue;
        const float* bp = b.row(p) + j;
        for (int l = 0; l < kGemmColTile; ++l) t[l] += av * bp[l];
      }
      for (int l = 0; l < kGemmColTile; ++l) crow[j + l] += t[l];
    }
    for (; j < n; ++j) {
      float t = 0.f;
      for (int p = p0; p < p1; ++p) t += arow[p] * b.row(p)[j];
      crow[j] += t;
    }
  }
}

// C[i0..i0+4) += A[:, i0..i0+4)^T * B, with A of shape (k, m).
void GemmTnPanel4(const Mat& a, const Mat& b, int i0, Mat* c) {
  const int k = a.rows(), n = b.cols();
  float* c0 = c->row(i0);
  float* c1 = c->row(i0 + 1);
  float* c2 = c->row(i0 + 2);
  float* c3 = c->row(i0 + 3);
  for (int p0 = 0; p0 < k; p0 += kGemmKBlock) {
    const int p1 = std::min(p0 + kGemmKBlock, k);
    int j = 0;
    for (; j + kGemmColTile <= n; j += kGemmColTile) {
      float t0[kGemmColTile] = {}, t1[kGemmColTile] = {};
      float t2[kGemmColTile] = {}, t3[kGemmColTile] = {};
      for (int p = p0; p < p1; ++p) {
        const float* ap = a.row(p) + i0;  // four adjacent columns: contiguous
        const float av0 = ap[0], av1 = ap[1], av2 = ap[2], av3 = ap[3];
        if (av0 == 0.f && av1 == 0.f && av2 == 0.f && av3 == 0.f) continue;
        const float* bp = b.row(p) + j;
        for (int l = 0; l < kGemmColTile; ++l) {
          const float bv = bp[l];
          t0[l] += av0 * bv;
          t1[l] += av1 * bv;
          t2[l] += av2 * bv;
          t3[l] += av3 * bv;
        }
      }
      for (int l = 0; l < kGemmColTile; ++l) {
        c0[j + l] += t0[l];
        c1[j + l] += t1[l];
        c2[j + l] += t2[l];
        c3[j + l] += t3[l];
      }
    }
    for (; j < n; ++j) {
      float t0 = 0.f, t1 = 0.f, t2 = 0.f, t3 = 0.f;
      for (int p = p0; p < p1; ++p) {
        const float* ap = a.row(p) + i0;
        const float bv = b.row(p)[j];
        t0 += ap[0] * bv;
        t1 += ap[1] * bv;
        t2 += ap[2] * bv;
        t3 += ap[3] * bv;
      }
      c0[j] += t0;
      c1[j] += t1;
      c2[j] += t2;
      c3[j] += t3;
    }
  }
}

void GemmTnPanel1(const Mat& a, const Mat& b, int i, Mat* c) {
  const int k = a.rows(), n = b.cols();
  float* crow = c->row(i);
  for (int p0 = 0; p0 < k; p0 += kGemmKBlock) {
    const int p1 = std::min(p0 + kGemmKBlock, k);
    int j = 0;
    for (; j + kGemmColTile <= n; j += kGemmColTile) {
      float t[kGemmColTile] = {};
      for (int p = p0; p < p1; ++p) {
        const float av = a.row(p)[i];
        if (av == 0.f) continue;
        const float* bp = b.row(p) + j;
        for (int l = 0; l < kGemmColTile; ++l) t[l] += av * bp[l];
      }
      for (int l = 0; l < kGemmColTile; ++l) crow[j + l] += t[l];
    }
    for (; j < n; ++j) {
      float t = 0.f;
      for (int p = p0; p < p1; ++p) t += a.row(p)[i] * b.row(p)[j];
      crow[j] += t;
    }
  }
}

// ---- GemmNtAccum microkernel ----------------------------------------------
//
// Dot-product form: C[i][j] = <A row i, B row j>. Four A rows share each
// loaded B row; every dot keeps kReduceLanes independent partial sums (lane
// = p mod kReduceLanes in main loop and tail alike) that vectorize without
// -ffast-math and are reduced in fixed lane order.

void GemmNtRows4(const Mat& a, const Mat& b, int i0, Mat* c) {
  const int k = a.cols(), n = b.rows();
  const float* a0 = a.row(i0);
  const float* a1 = a.row(i0 + 1);
  const float* a2 = a.row(i0 + 2);
  const float* a3 = a.row(i0 + 3);
  float* c0 = c->row(i0);
  float* c1 = c->row(i0 + 1);
  float* c2 = c->row(i0 + 2);
  float* c3 = c->row(i0 + 3);
  for (int j = 0; j < n; ++j) {
    const float* brow = b.row(j);
    float t0[kReduceLanes] = {}, t1[kReduceLanes] = {};
    float t2[kReduceLanes] = {}, t3[kReduceLanes] = {};
    int p = 0;
    for (; p + kReduceLanes <= k; p += kReduceLanes) {
      for (int l = 0; l < kReduceLanes; ++l) {
        const float bv = brow[p + l];
        t0[l] += a0[p + l] * bv;
        t1[l] += a1[p + l] * bv;
        t2[l] += a2[p + l] * bv;
        t3[l] += a3[p + l] * bv;
      }
    }
    for (; p < k; ++p) {
      const float bv = brow[p];
      const int l = p & (kReduceLanes - 1);
      t0[l] += a0[p] * bv;
      t1[l] += a1[p] * bv;
      t2[l] += a2[p] * bv;
      t3[l] += a3[p] * bv;
    }
    float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
    for (int l = 0; l < kReduceLanes; ++l) {
      s0 += t0[l];
      s1 += t1[l];
      s2 += t2[l];
      s3 += t3[l];
    }
    c0[j] += s0;
    c1[j] += s1;
    c2[j] += s2;
    c3[j] += s3;
  }
}

void GemmNtRows1(const Mat& a, const Mat& b, int i, Mat* c) {
  const int k = a.cols(), n = b.rows();
  const float* arow = a.row(i);
  float* crow = c->row(i);
  for (int j = 0; j < n; ++j) {
    const float* brow = b.row(j);
    float t[kReduceLanes] = {};
    int p = 0;
    for (; p + kReduceLanes <= k; p += kReduceLanes) {
      for (int l = 0; l < kReduceLanes; ++l) t[l] += arow[p + l] * brow[p + l];
    }
    for (; p < k; ++p) t[p & (kReduceLanes - 1)] += arow[p] * brow[p];
    float s = 0.f;
    for (int l = 0; l < kReduceLanes; ++l) s += t[l];
    crow[j] += s;
  }
}

}  // namespace

void GemmAccum(const Mat& a, const Mat& b, Mat* c) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  UAE_CHECK_EQ(b.rows(), k);
  UAE_CHECK(c->rows() == m && c->cols() == n) << a.ShapeString() << b.ShapeString();
  if (m == 0 || n == 0 || k == 0) return;
  auto body = [&](size_t blk0, size_t blk1) {
    for (size_t blk = blk0; blk < blk1; ++blk) {
      const int i0 = static_cast<int>(blk) * kGemmRowTile;
      if (i0 + kGemmRowTile <= m) {
        GemmPanel4(a, b, i0, c);
      } else {
        for (int i = i0; i < m; ++i) GemmPanel1(a, b, i, c);
      }
    }
  };
  ForEachRowBlock(size_t(m) * k * n, m, body);
}

void GemmNtAccum(const Mat& a, const Mat& b, Mat* c) {
  const int m = a.rows(), k = a.cols(), n = b.rows();
  UAE_CHECK_EQ(b.cols(), k);
  UAE_CHECK(c->rows() == m && c->cols() == n);
  if (m == 0 || n == 0 || k == 0) return;
  auto body = [&](size_t blk0, size_t blk1) {
    for (size_t blk = blk0; blk < blk1; ++blk) {
      const int i0 = static_cast<int>(blk) * kGemmRowTile;
      if (i0 + kGemmRowTile <= m) {
        GemmNtRows4(a, b, i0, c);
      } else {
        for (int i = i0; i < m; ++i) GemmNtRows1(a, b, i, c);
      }
    }
  };
  ForEachRowBlock(size_t(m) * k * n, m, body);
}

void GemmTnAccum(const Mat& a, const Mat& b, Mat* c) {
  const int k = a.rows(), m = a.cols(), n = b.cols();
  UAE_CHECK_EQ(b.rows(), k);
  UAE_CHECK(c->rows() == m && c->cols() == n);
  if (m == 0 || n == 0 || k == 0) return;
  // Parallel over blocks of C rows (columns of A): each thread accumulates
  // only into rows it owns, replacing the old serial shared-k loop without
  // any cross-thread reduction step.
  auto body = [&](size_t blk0, size_t blk1) {
    for (size_t blk = blk0; blk < blk1; ++blk) {
      const int i0 = static_cast<int>(blk) * kGemmRowTile;
      if (i0 + kGemmRowTile <= m) {
        GemmTnPanel4(a, b, i0, c);
      } else {
        for (int i = i0; i < m; ++i) GemmTnPanel1(a, b, i, c);
      }
    }
  };
  ForEachRowBlock(size_t(m) * k * n, m, body);
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

void AddBiasReluRows(const Mat& in, const Mat& bias, Mat* out) {
  UAE_CHECK_EQ(bias.rows(), 1);
  UAE_CHECK_EQ(bias.cols(), in.cols());
  UAE_CHECK(out->SameShape(in));
  const float* b = bias.row(0);
  for (int r = 0; r < in.rows(); ++r) {
    const float* src = in.row(r);
    float* dst = out->row(r);
    for (int c = 0; c < in.cols(); ++c) {
      const float v = src[c] + b[c];
      dst[c] = v > 0.f ? v : 0.f;
    }
  }
}

void ReluInplace(Mat* m) {
  float* d = m->data();
  for (size_t i = 0; i < m->size(); ++i) d[i] = d[i] > 0.f ? d[i] : 0.f;
}

float FastExpf(float x) { return FastExpfImpl(x); }

void SoftmaxRows(const Mat& in, Mat* out) {
  UAE_CHECK(out->SameShape(in));
  const int nc = in.cols();
  if (nc == 0) return;
  for (int r = 0; r < in.rows(); ++r) {
    const float* src = in.row(r);
    float* dst = out->row(r);
    const float mx = RowMax(src, nc);
    // Fused exp + lane-split sum: FastExpf is branch-free float arithmetic,
    // so the whole pass vectorizes instead of serializing on libm expf.
    float t[kReduceLanes] = {};
    int c = 0;
    for (; c + kReduceLanes <= nc; c += kReduceLanes) {
      for (int l = 0; l < kReduceLanes; ++l) {
        const float e = FastExpfImpl(src[c + l] - mx);
        dst[c + l] = e;
        t[l] += e;
      }
    }
    for (; c < nc; ++c) {
      const float e = FastExpfImpl(src[c] - mx);
      dst[c] = e;
      t[c & (kReduceLanes - 1)] += e;
    }
    float sum = 0.f;
    for (int l = 0; l < kReduceLanes; ++l) sum += t[l];
    const float inv = 1.f / sum;
    for (c = 0; c < nc; ++c) dst[c] *= inv;
  }
}

void SoftmaxRowsInplace(Mat* m) { SoftmaxRows(*m, m); }

void LogSoftmaxRows(const Mat& in, Mat* out) {
  UAE_CHECK(out->SameShape(in));
  const int nc = in.cols();
  if (nc == 0) return;
  for (int r = 0; r < in.rows(); ++r) {
    const float* src = in.row(r);
    float* dst = out->row(r);
    const float mx = RowMax(src, nc);
    float t[kReduceLanes] = {};
    int c = 0;
    for (; c + kReduceLanes <= nc; c += kReduceLanes) {
      for (int l = 0; l < kReduceLanes; ++l) t[l] += FastExpfImpl(src[c + l] - mx);
    }
    for (; c < nc; ++c) t[c & (kReduceLanes - 1)] += FastExpfImpl(src[c] - mx);
    float sum = 0.f;
    for (int l = 0; l < kReduceLanes; ++l) sum += t[l];
    const float lse = mx + std::log(sum);
    for (c = 0; c < nc; ++c) dst[c] = src[c] - lse;
  }
}

void MulElem(const Mat& a, const Mat& b, Mat* out) {
  UAE_CHECK(a.SameShape(b));
  UAE_CHECK(out->SameShape(a));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (size_t i = 0; i < a.size(); ++i) po[i] = pa[i] * pb[i];
}

void MulElemAccum(const Mat& a, const Mat& b, Mat* out) {
  UAE_CHECK(a.SameShape(b));
  UAE_CHECK(out->SameShape(a));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  for (size_t i = 0; i < a.size(); ++i) po[i] += pa[i] * pb[i];
}

}  // namespace uae::nn
