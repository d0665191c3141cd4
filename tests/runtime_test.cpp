/// Tests for the threading substrate: executor sizing, MPSC queue,
/// parallel_for chunking.

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/env.hpp"
#include "runtime/executor.hpp"
#include "runtime/mpsc_queue.hpp"
#include "runtime/parallel_for.hpp"

namespace rt = snetsac::runtime;

TEST(Env, FallbacksAndParsing) {
  EXPECT_EQ(rt::env_int("SNETSAC_SURELY_UNSET_VAR", 7), 7);
  ::setenv("SNETSAC_TEST_VAR", "13", 1);
  EXPECT_EQ(rt::env_int("SNETSAC_TEST_VAR", 7), 13);
  ::setenv("SNETSAC_TEST_VAR", "junk", 1);
  EXPECT_EQ(rt::env_int("SNETSAC_TEST_VAR", 7), 7);
  ::setenv("SNETSAC_TEST_VAR", "-3", 1);
  EXPECT_EQ(rt::env_int("SNETSAC_TEST_VAR", 7), 7);
  ::unsetenv("SNETSAC_TEST_VAR");
  EXPECT_GE(rt::hardware_threads(), 1U);
}

TEST(Executor, ZeroThreadsPromotedToOne) {
  rt::Executor exec(0);
  EXPECT_EQ(exec.size(), 1U);
}

TEST(MpscQueue, FifoOrderSingleProducer) {
  rt::MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push(1).was_empty);
  EXPECT_FALSE(q.push(2).was_empty);
  EXPECT_EQ(q.size(), 2U);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, ManyProducersDeliverEverything) {
  rt::MpscQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kEach = 500;
  std::vector<std::jthread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kEach; ++i) {
        q.push(p * kEach + i);
      }
    });
  }
  producers.clear();  // join
  std::set<int> seen;
  while (auto v = q.try_pop()) {
    seen.insert(*v);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kEach));
}

TEST(MpscQueue, DrainIntoBatchesInFifoOrder) {
  rt::MpscQueue<int> q;
  for (int i = 0; i < 10; ++i) {
    q.push(i);
  }
  std::vector<int> out;
  EXPECT_EQ(q.drain_into(out, 4), 4U);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6U);
  // Appends to existing contents; asking for more than available drains all.
  EXPECT_EQ(q.drain_into(out, 100), 6U);
  EXPECT_EQ(out.size(), 10U);
  EXPECT_EQ(out.back(), 9);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drain_into(out, 5), 0U);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  rt::Executor exec(3);
  std::vector<std::atomic<int>> hits(1000);
  rt::parallel_for_chunks(exec, 0, 1000, 10, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingleElementRanges) {
  rt::Executor exec(2);
  int calls = 0;
  rt::parallel_for_chunks(exec, 5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  rt::parallel_for_chunks(exec, 41, 42, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      sum.fetch_add(static_cast<int>(i));
    }
  });
  EXPECT_EQ(sum.load(), 41);
}

TEST(ParallelFor, RespectsGrainAsSequentialFallback) {
  rt::Executor exec(4);
  // grain larger than extent => a single chunk on the calling thread.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids;
  rt::parallel_for_chunks(exec, 0, 100, 1000, [&](std::int64_t, std::int64_t) {
    ids.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(ids.size(), 1U);
  EXPECT_EQ(ids[0], caller);
}

TEST(ParallelFor, PropagatesFirstException) {
  rt::Executor exec(2);
  EXPECT_THROW(
      rt::parallel_for_chunks(exec, 0, 100, 1,
                              [&](std::int64_t lo, std::int64_t hi) {
                                for (std::int64_t i = lo; i < hi; ++i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }
                              }),
      std::runtime_error);
}

TEST(ParallelFor, ChunkBoundsPartitionRange) {
  rt::Executor exec(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  rt::parallel_for_chunks(exec, 10, 210, 1, [&](std::int64_t lo, std::int64_t hi) {
    const std::lock_guard lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10);
  EXPECT_EQ(chunks.back().second, 210);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i - 1].second, chunks[i].first);  // contiguous, disjoint
  }
}

// Parameterised sweep: results identical for any worker/grain combination.
class ParallelForSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::int64_t>> {};

TEST_P(ParallelForSweep, SumMatchesSequential) {
  const auto [workers, grain] = GetParam();
  rt::Executor exec(workers);
  std::atomic<std::int64_t> sum{0};
  rt::parallel_for_chunks(exec, 0, 10'000, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      sum.fetch_add(i);
    }
  });
  EXPECT_EQ(sum.load(), 10'000LL * 9'999 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelForSweep,
    ::testing::Combine(::testing::Values(1U, 2U, 4U, 8U),
                       ::testing::Values<std::int64_t>(1, 7, 128, 100'000)));
