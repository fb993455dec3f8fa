#include <gtest/gtest.h>

#include <cmath>

#include "math/stats.hpp"

namespace {

using namespace resloc::math;

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, StddevBasics) {
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({2.0, 2.0, 2.0}), 0.0);
}

TEST(Stats, StddevIsSampleStddev) {
  // Bessel's correction: divide by N - 1, not N. {2, 4}: mean 3, squared
  // deviations sum 2 -> sample stddev sqrt(2) (population would be 1).
  EXPECT_DOUBLE_EQ(stddev({2.0, 4.0}), std::sqrt(2.0));
  // {1, -1, 1, -1}: sum of squared deviations 4, N - 1 = 3.
  EXPECT_NEAR(stddev({1.0, -1.0, 1.0, -1.0}), std::sqrt(4.0 / 3.0), 1e-12);
}

TEST(Stats, MedianOdd) { EXPECT_DOUBLE_EQ(*median({3.0, 1.0, 2.0}), 2.0); }

TEST(Stats, MedianEven) { EXPECT_DOUBLE_EQ(*median({4.0, 1.0, 3.0, 2.0}), 2.5); }

TEST(Stats, MedianEmpty) { EXPECT_FALSE(median({}).has_value()); }

TEST(Stats, MedianRobustToOutlier) {
  EXPECT_DOUBLE_EQ(*median({10.0, 10.1, 9.9, 10.05, 55.0}), 10.05);
}

TEST(Stats, BinnedModePicksDominantCluster) {
  // Cluster around 10.0 (4 values), outliers elsewhere.
  const std::vector<double> v{10.0, 10.1, 9.95, 10.05, 3.0, 55.0, 54.9};
  const auto mode = binned_mode(v, 0.5);
  ASSERT_TRUE(mode.has_value());
  EXPECT_NEAR(*mode, 10.0, 0.5);
}

TEST(Stats, BinnedModeEdgeCases) {
  EXPECT_FALSE(binned_mode({}, 0.5).has_value());
  EXPECT_FALSE(binned_mode({1.0}, 0.0).has_value());
  EXPECT_FALSE(binned_mode({1.0}, -1.0).has_value());
  EXPECT_NEAR(*binned_mode({1.0}, 0.5), 1.25, 1e-12);  // center of bin [1.0, 1.5)
}

TEST(Stats, BinnedModeNegativeValues) {
  const auto mode = binned_mode({-2.1, -2.2, -2.05, 5.0}, 0.5);
  ASSERT_TRUE(mode.has_value());
  EXPECT_LT(*mode, -1.75);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(*percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(*percentile(v, 50.0), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(*percentile(v, 25.0), 2.5);
}

TEST(Stats, PercentileEmpty) { EXPECT_FALSE(percentile({}, 50.0).has_value()); }

// --- 0/1/2-element pins. The statistical filter and the robust pre-filters
// --- call these on arbitrarily small per-pair measurement lists, so the
// --- degenerate conventions are load-bearing, not incidental.

TEST(Stats, MedianDegenerateConventions) {
  EXPECT_FALSE(median({}).has_value());            // {}     -> nullopt
  EXPECT_DOUBLE_EQ(*median({7.5}), 7.5);           // {a}    -> a
  EXPECT_DOUBLE_EQ(*median({4.0, 6.0}), 5.0);      // {a, b} -> (a + b) / 2
}

TEST(Stats, PercentileDegenerateConventions) {
  // {a} -> a for EVERY p: a single sample is every percentile.
  for (const double p : {0.0, 25.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(*percentile({3.25}, p), 3.25) << "p=" << p;
  }
  // {a, b} -> linear interpolation between the two order statistics; p=50
  // gives their average, matching median({a, b}).
  EXPECT_DOUBLE_EQ(*percentile({4.0, 6.0}, 50.0), *median({4.0, 6.0}));
  EXPECT_DOUBLE_EQ(*percentile({4.0, 6.0}, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(*percentile({4.0, 6.0}, 100.0), 6.0);
}

TEST(Stats, MadDegenerateConventions) {
  EXPECT_FALSE(mad({}).has_value());                    // {}     -> nullopt
  EXPECT_DOUBLE_EQ(*mad({9.0}), 0.0);                   // {a}    -> 0 (no spread)
  EXPECT_DOUBLE_EQ(*mad({4.0, 6.0}), 1.0);              // {a, b} -> |a - b| / 2
}

TEST(Stats, MadIsUnscaledAndRobust) {
  // Unscaled convention: mad({1, 2, 3}) = median({1, 0, 1}) = 1, not
  // 1.4826 -- callers apply the Gaussian consistency factor themselves.
  EXPECT_DOUBLE_EQ(*mad({1.0, 2.0, 3.0}), 1.0);
  // One wild outlier moves the MAD far less than it moves the stddev.
  EXPECT_NEAR(*mad({10.0, 10.1, 9.9, 10.05, 9.95, 500.0}), 0.075, 1e-12);
}

TEST(Stats, Rms) {
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
  EXPECT_DOUBLE_EQ(rms({3.0, -4.0}), std::sqrt(12.5));
}

TEST(Stats, MinMax) {
  EXPECT_FALSE(min_value({}).has_value());
  EXPECT_FALSE(max_value({}).has_value());
  EXPECT_DOUBLE_EQ(*min_value({3.0, -1.0, 2.0}), -1.0);
  EXPECT_DOUBLE_EQ(*max_value({3.0, -1.0, 2.0}), 3.0);
}

TEST(Stats, FractionWithin) {
  const std::vector<double> v{-0.2, 0.1, 0.5, -1.5, 2.0};
  EXPECT_DOUBLE_EQ(fraction_within(v, 0.3), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(fraction_within(v, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_within({}, 1.0), 0.0);
}

}  // namespace
