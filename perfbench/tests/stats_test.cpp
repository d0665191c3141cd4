#include "stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(TailPercentile, KeepsTheWantedRankWhenTenSamplesLieBeyond) {
  const auto t = tail_percentile(one_to(2000), 99);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 1980);
  EXPECT_EQ(t->percentile, 99);
  EXPECT_EQ(t->samples, 2000U);
  EXPECT_EQ(t->beyond, 20U);
}

TEST(TailPercentile, ExactlyTenBeyondIsEnough) {
  const auto t = tail_percentile(one_to(1000), 99);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 990);
  EXPECT_EQ(t->beyond, 10U);
}

TEST(TailPercentile, LowersThePercentileForSmallSamples) {
  // p99 of 500 samples has only 5 beyond it: the rule falls back to the
  // rank with 10 beyond, i.e. p98, and says so.
  const auto t = tail_percentile(one_to(500), 99);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 490);
  EXPECT_EQ(t->percentile, 98);
  EXPECT_EQ(t->beyond, 10U);
  EXPECT_EQ(t->samples, 500U);
}

TEST(TailPercentile, IsOrderIndependent) {
  std::vector<double> v = one_to(1500);
  std::reverse(v.begin(), v.end());
  const auto t = tail_percentile(v, 99);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 1485);
}

TEST(TailPercentile, RefusesSamplesTooSmallForAnyTail) {
  EXPECT_FALSE(tail_percentile(one_to(10), 99));
  EXPECT_FALSE(tail_percentile({}, 50));
  const auto t = tail_percentile(one_to(11), 99);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 1);
  EXPECT_EQ(t->beyond, 10U);
}

TEST(ChunkedTail, MedianOfChunkTailsIgnoresOneBadStretch) {
  // Three chunks of 1000: the middle one has a stall-inflated tail.
  std::vector<double> v;
  for (int chunk = 0; chunk < 3; ++chunk) {
    for (int i = 1; i <= 1000; ++i) {
      v.push_back(chunk == 1 ? i * 10.0 : i);
    }
  }
  const auto t = chunked_tail(v, 99, 1000, 10);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 990);  // the clean chunks' p99
  EXPECT_EQ(t->samples, 3000U);
  EXPECT_EQ(t->beyond, 10U);
}

TEST(ChunkedTail, ShortSamplesAreOneChunk) {
  const auto t = chunked_tail(one_to(500), 99, 1000, 10);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 490);  // tail_percentile's fallback rank
  EXPECT_EQ(t->percentile, 98);
}

TEST(ChunkedTail, AtMostMaxChunks) {
  // 20000 samples, at most 4 chunks of 5000: p99 of 1..5000 repeated.
  std::vector<double> v;
  for (int chunk = 0; chunk < 4; ++chunk) {
    const auto part = one_to(5000);
    v.insert(v.end(), part.begin(), part.end());
  }
  const auto t = chunked_tail(v, 99, 1000, 4);
  ASSERT_TRUE(t);
  EXPECT_EQ(t->value, 4950);
  EXPECT_EQ(t->beyond, 50U);
}

TEST(Calm, KeepsEveryEntryOnAQuietHost) {
  const std::vector<double> steal = {0.0, 0.01, 0.0, 0.02, 0.0};
  EXPECT_EQ(calm(steal), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Calm, KeepsTheLeastStolenInTimeOrder) {
  const std::vector<double> steal = {0.20, 0.05, 0.30, 0.06, 0.02, 0.25};
  EXPECT_EQ(calm(steal), (std::vector<std::size_t>{1, 3, 4}));
  // Four entries within the slack of the cleanest: all four are kept.
  EXPECT_EQ(calm({0.10, 0.11, 0.12, 0.13, 0.40}),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Calm, KeepsAtLeastThree) {
  EXPECT_EQ(calm({0.5, 0.0, 0.4, 0.3}), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(calm({0.5, 0.0}), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(calm({}).empty());
}

TEST(Calm, MedianOverTheCalmEntries) {
  const std::vector<double> rates = {100, 300, 90, 310, 305, 80};
  const std::vector<double> steal = {0.20, 0.00, 0.25, 0.01, 0.02, 0.30};
  EXPECT_EQ(calm_median(rates, steal), 305);
}

}  // namespace
}  // namespace perfbench
