// util/: status, rng determinism + distributions, threadpool, math, quantiles,
// CSV round-trip, string helpers.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/mathutil.h"
#include "util/quantiles.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace uae::util {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad"), std::string::npos);
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ZipfSkewsTowardZero) {
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(rng.Zipf(100, 1.2))];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 2000);  // Head value dominates under s=1.2.
  int64_t total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(6);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(rng.Zipf(10, 0.0))];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(8);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / 10000.0, 0.6, 0.03);
  EXPECT_NEAR(counts[1] / 10000.0, 0.3, 0.03);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  auto s = rng.SampleWithoutReplacement(1000, 50);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  EXPECT_EQ(s.size(), 50u);
  for (size_t v : s) EXPECT_LT(v, 1000u);
}

TEST(RngTest, GumbelMeanIsEulerGamma) {
  Rng rng(10);
  double total = 0;
  for (int i = 0; i < 50000; ++i) total += rng.Gumbel();
  EXPECT_NEAR(total / 50000, 0.5772, 0.05);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<int> hits(10000, 0);
  ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i] += 1;
  }, /*min_parallel_size=*/64);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(MathTest, LogSumExpStable) {
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({0.0, 0.0, 0.0}), std::log(3.0), 1e-12);
}

TEST(MathTest, NormalCdf) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(MathTest, SkewnessSigns) {
  std::vector<double> right_skewed = {1, 1, 1, 1, 2, 2, 3, 10, 20};
  EXPECT_GT(Skewness(right_skewed), 1.0);
  std::vector<double> symmetric = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_NEAR(Skewness(symmetric), 0.0, 1e-9);
}

TEST(MathTest, MutualInformationIdenticalColumns) {
  std::vector<int32_t> a = {0, 1, 2, 0, 1, 2, 0, 1};
  double mi = MutualInformation(a, 3, a, 3);
  EXPECT_NEAR(mi, Entropy(a, 3), 1e-9);
  EXPECT_NEAR(NormalizedMutualInformation(a, 3, a, 3), 1.0, 1e-9);
}

TEST(MathTest, MutualInformationIndependent) {
  // Perfectly independent uniform pair.
  std::vector<int32_t> a, b;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      a.push_back(i);
      b.push_back(j);
    }
  }
  EXPECT_NEAR(MutualInformation(a, 4, b, 4), 0.0, 1e-9);
}

TEST(QuantilesTest, BasicQuantiles) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 5.0);
  // An infinite element neither poisons an exact position nor gets lost.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> with_inf = {1, inf, 2};
  EXPECT_DOUBLE_EQ(Quantile(with_inf, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(with_inf, 0.5), 2.0);
  EXPECT_EQ(Quantile(with_inf, 0.75), inf);
  EXPECT_EQ(Quantile(with_inf, 1.0), inf);
  EXPECT_EQ(Quantile({inf, inf, inf}, 0.5), inf);
}

TEST(QuantilesTest, Summarize) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  ErrorSummary s = Summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p95, 95.0, 1.0);
  EXPECT_EQ(s.count, 100u);
}

TEST(QuantilesTest, SummarizeBitwiseMatchesPerQuantileSorts) {
  // Regression for the single-sort Summarize: it used to call Quantile()
  // three times (copy + sort each); the one-sort-and-index path must stay
  // BITWISE identical to per-quantile Quantile() calls on the same sample.
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 501; ++i) {
    xs.push_back(std::exp(rng.Uniform() * 20.0 - 10.0));
  }
  ErrorSummary s = Summarize(xs);
  EXPECT_EQ(s.median, Quantile(xs, 0.5));
  EXPECT_EQ(s.p95, Quantile(xs, 0.95));
  EXPECT_EQ(s.p99, Quantile(xs, 0.99));
}

TEST(QuantilesTest, QuantileSortedMatchesQuantile) {
  std::vector<double> xs = {5, 1, 3, 2, 4, 9, 7};
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(QuantileSorted(sorted, q), Quantile(xs, q)) << "q=" << q;
  }
  EXPECT_EQ(QuantileSorted({}, 0.5), 0.0);
}

TEST(QuantilesTest, FormatErrorDistinguishesNanFromInf) {
  // Regression: NaN used to format as "inf".
  EXPECT_EQ(FormatError(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(FormatError(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(FormatError(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(FormatError(1.0), "1.000");
  EXPECT_EQ(FormatError(123.4), "123.4");
}

TEST(CsvTest, RoundTripWithQuoting) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"1", "hello, world"}, {"2", "with \"quotes\""}};
  std::string path = "/tmp/uae_csv_test.csv";
  ASSERT_TRUE(WriteCsv(path, doc).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().header, doc.header);
  EXPECT_EQ(loaded.value().rows, doc.rows);
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileIsError) {
  auto r = ReadCsv("/tmp/definitely_missing_uae.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(StringTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_TRUE(StartsWith("--rows=5", "--"));
  EXPECT_EQ(StrFormat("%d-%s", 3, "a"), "3-a");
}

}  // namespace
}  // namespace uae::util
