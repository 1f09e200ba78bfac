// workload/: q-error metric properties and selectivity histograms.
#include <gtest/gtest.h>

#include <limits>

#include "workload/metrics.h"

namespace uae::workload {
namespace {

TEST(MetricsTest, QErrorSymmetricAndFloored) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  // Floor of 1: zero estimates / zero truths do not blow up.
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 50), 50.0);
  EXPECT_DOUBLE_EQ(QError(50, 0), 50.0);
  EXPECT_GE(QError(3.7, 9.1), 1.0);
  // NaN on either side is the worst score, never a NaN (or a perfect 1.0).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(QError(nan, 3), inf);
  EXPECT_EQ(QError(nan, 1), inf);
  EXPECT_EQ(QError(3, nan), inf);
  EXPECT_EQ(QError(nan, nan), inf);
  EXPECT_EQ(QError(inf, 3), inf);
  EXPECT_EQ(QError(inf, inf), inf);
}

TEST(MetricsTest, EvaluateQErrors) {
  Workload w(3);
  w[0].card = 10;
  w[1].card = 100;
  w[2].card = 1;
  size_t batch_calls = 0;
  auto errors = EvaluateQErrorsBatched(w, [&](std::span<const Query> qs) {
    ++batch_calls;
    EXPECT_EQ(qs.size(), w.size());
    return std::vector<double>(qs.size(), 10.0);
  });
  EXPECT_EQ(batch_calls, 1u);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(errors[0], 1.0);
  EXPECT_DOUBLE_EQ(errors[1], 10.0);
  EXPECT_DOUBLE_EQ(errors[2], 10.0);
}

TEST(MetricsTest, SelectivityHistogramBuckets) {
  Workload w;
  for (double sel : {0.5, 0.05, 0.005, 1e-7, 1e-9}) {
    LabeledQuery lq;
    lq.selectivity = sel;
    w.push_back(lq);
  }
  SelectivityHistogram h = SelectivityDistribution(w);
  EXPECT_EQ(h.total, 5);
  EXPECT_EQ(h.bucket_counts[7], 1);  // 0.5 in [1e-1, 1e0).
  EXPECT_EQ(h.bucket_counts[6], 1);  // 0.05.
  EXPECT_EQ(h.bucket_counts[5], 1);  // 0.005.
  EXPECT_EQ(h.bucket_counts[1], 1);  // 1e-7.
  EXPECT_EQ(h.bucket_counts[0], 1);  // 1e-9 clamps into the lowest bucket.
  std::string s = FormatSelectivityHistogram(h);
  EXPECT_NE(s.find("20.0%"), std::string::npos);
}

TEST(MetricsTest, FormatResultRow) {
  util::ErrorSummary a;
  a.mean = 1.234;
  a.median = 1.0;
  a.p95 = 20.5;
  a.max = 12345.0;
  std::string row = FormatResultRow("Model-X", 2 << 20, a, a);
  EXPECT_NE(row.find("Model-X"), std::string::npos);
  EXPECT_NE(row.find("2.0MB"), std::string::npos);
  EXPECT_NE(row.find("1.2e+04"), std::string::npos);
}

}  // namespace
}  // namespace uae::workload
