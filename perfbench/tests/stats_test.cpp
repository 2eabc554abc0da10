// Unit tests of the benchmark's statistics helpers.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(*percentile(values, 0.5), 3);
  EXPECT_EQ(*percentile(values, 0.2), 1);
  EXPECT_EQ(*percentile(values, 0.21), 2);
  EXPECT_EQ(*percentile(values, 1.0), 5);
  EXPECT_EQ(*percentile(one_to(200), 0.95), 190);
  EXPECT_FALSE(percentile({}, 0.5));
  EXPECT_FALSE(percentile(values, 0.0));
  EXPECT_FALSE(percentile(values, 1.5));
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p95 of 200 samples sits at rank 190: exactly ten beyond it.
  EXPECT_TRUE(percentile_supported(200, 0.95));
  EXPECT_FALSE(percentile_supported(199, 0.95));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_FALSE(percentile_supported(0, 0.5));

  EXPECT_FALSE(highest_supported_percentile(19));
  EXPECT_EQ(*highest_supported_percentile(20), 0.5);
  EXPECT_EQ(*highest_supported_percentile(100), 0.9);
  EXPECT_EQ(*highest_supported_percentile(200), 0.95);
  EXPECT_EQ(*highest_supported_percentile(999), 0.95);
  EXPECT_EQ(*highest_supported_percentile(1000), 0.99);
  EXPECT_EQ(*highest_supported_percentile(10000), 0.999);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(*median({3, 1, 2}), 2);
  EXPECT_EQ(*median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(median({}));
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto ten = quartiles(one_to(10));
  ASSERT_TRUE(ten);
  EXPECT_DOUBLE_EQ((*ten)[0], 2.75);
  EXPECT_DOUBLE_EQ((*ten)[1], 5.5);
  EXPECT_DOUBLE_EQ((*ten)[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto two = quartiles({2, 1});
  ASSERT_TRUE(two);
  EXPECT_DOUBLE_EQ((*two)[0], 0.75);
  EXPECT_DOUBLE_EQ((*two)[1], 1.5);
  EXPECT_DOUBLE_EQ((*two)[2], 2.25);
  EXPECT_FALSE(quartiles({1}));
}

TEST(Quartiles, RelativeSpread) {
  // (8.25 - 2.75) / 5.5 == 1.0
  EXPECT_DOUBLE_EQ(*relative_spread(one_to(10)), 1.0);
  EXPECT_DOUBLE_EQ(*relative_spread({7, 7, 7, 7}), 0.0);
  EXPECT_FALSE(relative_spread({0, 0, 0}));
}

TEST(OpCounts, FailureShare) {
  OpCounts ops;
  EXPECT_EQ(ops.failure_share(), 0.0);
  ops.add(true);
  ops.add(false);
  ops.add(true);
  ops.add(true);
  EXPECT_EQ(ops.attempted, 4u);
  EXPECT_EQ(ops.failed, 1u);
  EXPECT_DOUBLE_EQ(ops.failure_share(), 0.25);
}

TEST(TracingOverhead, DirectionFollowsTheMetric) {
  // A throughput that drops from 100 to 90 under tracing: 10% overhead.
  EXPECT_DOUBLE_EQ(*tracing_overhead(100.0, 90.0, true), 0.1);
  // A latency that rises from 20 to 25 ms: 25% overhead.
  EXPECT_DOUBLE_EQ(*tracing_overhead(20.0, 25.0, false), 0.25);
  // A traced run that reads better shows a negative overhead.
  EXPECT_DOUBLE_EQ(*tracing_overhead(20.0, 19.0, false), -0.05);
  EXPECT_FALSE(tracing_overhead(0.0, 1.0, true));
}

}  // namespace
}  // namespace perfbench
