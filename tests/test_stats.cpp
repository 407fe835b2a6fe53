#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace uniserver {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, SingleSample) {
  Accumulator acc;
  acc.add(3.5);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 3.5);
  EXPECT_DOUBLE_EQ(acc.max(), 3.5);
}

TEST(Accumulator, MatchesDirectComputation) {
  const std::vector<double> data{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Accumulator acc;
  for (double x : data) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1 denominator: sum sq dev = 32, / 7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, NonFiniteSamplesAreDroppedAndTallied) {
  // Regression: a single NaN used to poison mean/variance/min/max for
  // good (NaN propagates through every later read).
  Accumulator acc;
  acc.add(2.0);
  acc.add(std::numeric_limits<double>::quiet_NaN());
  acc.add(std::numeric_limits<double>::infinity());
  acc.add(-std::numeric_limits<double>::infinity());
  acc.add(4.0);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_EQ(acc.invalid(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_FALSE(std::isnan(acc.variance()));
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> data{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(data, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(data, 25.0), 2.5);
}

TEST(Percentile, ClampsOutOfRangeQ) {
  const std::vector<double> data{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(data, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(data, 150.0), 3.0);
}

TEST(Percentile, NonFiniteSamplesAreIgnored) {
  // Regression: NaN in the sample set made std::sort's strict-weak-
  // ordering contract UB, and a NaN landing at the picked rank leaked
  // into the result. Non-finite samples are filtered before ranking.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(percentile({nan, 2.0, 1.0, inf, 3.0, -inf}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({nan, 2.0, 1.0, inf, 3.0}, 100.0), 3.0);
  // All-invalid degrades to the empty-sample behavior.
  EXPECT_DOUBLE_EQ(percentile({nan, inf}, 50.0), 0.0);
  EXPECT_FALSE(std::isnan(percentile({nan, 1.0}, 50.0)));
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(25.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
}

TEST(HistogramTest, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_low(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_high(4), 10.0);
}

TEST(HistogramTest, AsciiRendersOneLinePerBin) {
  Histogram h(0.0, 1.0, 3);
  h.add(0.1);
  h.add(0.5);
  const std::string art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
}

}  // namespace
}  // namespace uniserver
