/// Fused with-loop chains: map/zip_with/fold over a lazy producer execute
/// as one segment pass with zero intermediate arrays, and must agree
/// bit-for-bit with the unfused interpreted pipeline (the reference engine
/// of with_loop_reference.hpp), with COW value semantics intact when a chain's source aliases
/// its destination. Labelled `concurrency`: the parallel sweeps here are
/// what the sanitizer matrix runs.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "sacpp/io.hpp"
#include "sacpp/ops.hpp"
#include "sacpp/with_loop.hpp"
#include "with_loop_reference.hpp"

using sac::Array;
using sac::Context;
using sac::Index;
using sac::Shape;
using sac::ShapeError;
using sac::With;
using Ref = sac::testing::ReferenceEngine;

namespace {
const Context kCompiled1{1, 1024};

Array<int> sample_array(std::int64_t rows, std::int64_t cols) {
  std::vector<int> data;
  for (std::int64_t i = 0; i < rows * cols; ++i) {
    data.push_back(static_cast<int>(i * 13 % 97));
  }
  return Array<int>(Shape{rows, cols}, std::move(data));
}
}  // namespace

// ---- Chain semantics ----------------------------------------------------

TEST(Fusion, LazyGenarrayMapFoldIsOnePassAndCorrect) {
  // genarray → map → fold with no intermediate Array: sum of 2*(i+j)+1
  // over a 64x32 grid.
  const std::int64_t R = 64;
  const std::int64_t C = 32;
  const auto chain = With<int>()
                         .gen({0, 0}, {R, C},
                              [](const Index& iv) { return static_cast<int>(iv[0] + iv[1]); })
                         .lazy_genarray(Shape{R, C}, 0)
                         .map([](int v) { return 2 * v + 1; });
  const auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  std::int64_t expect = 0;
  for (std::int64_t i = 0; i < R; ++i) {
    for (std::int64_t j = 0; j < C; ++j) {
      expect += 2 * (i + j) + 1;
    }
  }
  EXPECT_EQ(chain.map([](int v) { return static_cast<std::int64_t>(v); })
                .fold(plus, 0, kCompiled1),
            expect);
  EXPECT_EQ(Ref::fold(chain.map([](int v) { return static_cast<std::int64_t>(v); }), plus, 0),
            expect);
}

TEST(Fusion, MapProducesSameArrayAsNaiveLoop) {
  const auto a = sample_array(20, 17);
  const auto out = sac::map(a, [](int v) { return v * v - 3; });
  ASSERT_EQ(out.shape(), a.shape());
  for (std::int64_t i = 0; i < a.element_count(); ++i) {
    EXPECT_EQ(out.linear(i), a.linear(i) * a.linear(i) - 3);
  }
}

TEST(Fusion, MapChangesElementType) {
  const auto a = sample_array(5, 5);
  const Array<double> out = sac::map(a, [](int v) { return v * 0.5; });
  EXPECT_EQ(out.linear(7), a.linear(7) * 0.5);
}

TEST(Fusion, ZipWithMatchesNaiveLoop) {
  const auto a = sample_array(11, 23);
  const auto b = sac::map(a, [](int v) { return 300 - v; });
  const auto out = sac::zip_with(a, b, [](int x, int y) { return x * 2 + y; });
  for (std::int64_t i = 0; i < a.element_count(); ++i) {
    EXPECT_EQ(out.linear(i), a.linear(i) * 2 + b.linear(i));
  }
}

TEST(Fusion, ZipWithShapeMismatchRejected) {
  const Array<int> a(Shape{3, 4}, 1);
  const Array<int> b(Shape{4, 3}, 1);
  EXPECT_THROW(sac::zip_with(a, b, [](int x, int y) { return x + y; }),
               ShapeError);
  EXPECT_THROW(sac::lazy(a).zip_with(b, [](int x, int y) { return x + y; }),
               ShapeError);
}

TEST(Fusion, ZipWithMixedTypes) {
  const Array<int> a(Shape{6}, 3);
  const Array<bool> mask = sac::map(a, [](int v) { return v > 0; });
  const auto out =
      sac::lazy(a).zip_with(mask, [](int v, bool m) { return m ? v : -v; }).to_array();
  EXPECT_EQ(sac::to_string(out), "[3,3,3,3,3,3]");
}

TEST(Fusion, LazyModarrayChainSeesSourceAndGenerators) {
  // modarray root: generator cells come from the generator, the rest from
  // the source — then one fused map over both kinds of segment.
  const auto src = sample_array(8, 8);
  const auto out = With<int>()
                       .gen_val({2, 2}, {6, 6}, 100)
                       .lazy_modarray(src)
                       .map([](int v) { return v + 1; })
                       .to_array(kCompiled1);
  EXPECT_EQ((out[{3, 3}]), 101);
  EXPECT_EQ((out[{0, 0}]), (src[{0, 0}]) + 1);
}

TEST(Fusion, AddNumberStyleMultiGeneratorChain) {
  // The sudoku addNumber shape: four overlapping constant generators over
  // one modarray, fused with a counting fold — one plan, one pass.
  const std::int64_t N = 9;
  const Array<bool> opts(Shape{N, N, N}, true);
  const auto chain = With<bool>()
                         .gen_incl_val({4, 4, 0}, {4, 4, N - 1}, false)
                         .gen_incl_val({4, 0, 3}, {4, N - 1, 3}, false)
                         .gen_incl_val({0, 4, 3}, {N - 1, 4, 3}, false)
                         .gen_incl_val({3, 3, 3}, {5, 5, 3}, false)
                         .lazy_modarray(opts)
                         .map([](bool b) { return b ? 1 : 0; });
  const auto plus = [](int a, int b) { return a + b; };
  const int compiled = chain.fold(plus, 0, kCompiled1);
  const int reference = Ref::fold(chain, plus, 0);
  EXPECT_EQ(compiled, reference);
  // 9 (cell) + 8 (row rest) + 8 (col rest) + 8 (box rest) - overlaps, all
  // false; the remaining true count:
  const auto arr = chain.to_array(kCompiled1);
  int trues = 0;
  for (std::int64_t i = 0; i < arr.element_count(); ++i) {
    trues += arr.linear(i);
  }
  EXPECT_EQ(compiled, trues);
}

// ---- Compiled vs interpreted over random chains -------------------------

TEST(Fusion, RandomChainsCompiledMatchesInterpreted) {
  std::mt19937 rng(20260807);
  const Context par4{4, 1};
  for (int trial = 0; trial < 100; ++trial) {
    std::uniform_int_distribution<std::int64_t> ext_d(1, 12);
    const std::int64_t rows = ext_d(rng);
    const std::int64_t cols = ext_d(rng);
    std::uniform_int_distribution<std::int64_t> lo_d(0, rows);
    const std::int64_t r0 = lo_d(rng);
    std::uniform_int_distribution<std::int64_t> r1_d(r0, rows);
    const std::int64_t r1 = r1_d(rng);
    const auto other = sample_array(rows, cols);
    const auto chain = With<int>()
                           .gen({r0, 0}, {r1, cols},
                                [](const Index& iv) {
                                  return static_cast<int>(iv[0] * 5 + iv[1]);
                                })
                           .lazy_genarray(Shape{rows, cols}, -3)
                           .map([](int v) { return v * 3 + 1; })
                           .zip_with(other, [](int v, int o) { return v - o; });
    const auto ref = Ref::to_array(chain);
    ASSERT_EQ(chain.to_array(kCompiled1), ref) << "trial " << trial;
    ASSERT_EQ(chain.to_array(par4), ref) << "parallel trial " << trial;
    const auto plus = [](int a, int b) { return a + b; };
    const int fref = Ref::fold(chain, plus, 0);
    ASSERT_EQ(chain.fold(plus, 0, kCompiled1), fref) << "fold trial " << trial;
    ASSERT_EQ(chain.fold(plus, 0, par4), fref) << "parallel fold trial " << trial;
  }
}

TEST(Fusion, StridedGeneratorChain) {
  const auto chain = With<int>()
                         .gen_val({0, 0}, {10, 10}, 5)
                         .step({2, 3})
                         .width({1, 2})
                         .lazy_genarray(Shape{10, 10}, 1)
                         .map([](int v) { return v * 10; });
  EXPECT_EQ(chain.to_array(kCompiled1), Ref::to_array(chain));
}

// ---- COW / value-semantics invariants -----------------------------------

TEST(Fusion, SourceAliasingDestinationKeepsValueSemantics) {
  // a participates in the chain AND receives its result: the alias taken
  // before the assignment must keep the old values (SaC arrays are values).
  Array<int> a = sample_array(9, 9);
  const Array<int> alias = a;
  a = sac::lazy(a).map([](int v) { return v + 1000; }).to_array(kCompiled1);
  // The chain's temporaries released their source copies; the alias is now
  // the sole owner of the pre-chain buffer, values untouched.
  EXPECT_TRUE(alias.unique());
  for (std::int64_t i = 0; i < alias.element_count(); ++i) {
    EXPECT_EQ(a.linear(i), alias.linear(i) + 1000);
  }
}

TEST(Fusion, ChainResultOwnsItsBuffer) {
  const auto src = sample_array(6, 6);
  auto out = sac::lazy(src).map([](int v) { return v; }).to_array(kCompiled1);
  EXPECT_TRUE(out.unique()) << "a chain materialises into a fresh buffer";
  // Mutating the result must not disturb the source (no hidden sharing).
  out.set({0, 0}, 12345);
  EXPECT_NE(out.linear(0), src.linear(0));
}

TEST(Fusion, ZipOperandSnapshotIsStable) {
  // The zip operand is captured by value; mutating the original after the
  // chain is built must not change what the chain reads (COW detaches).
  Array<int> b(Shape{5}, 2);
  const auto chain = sac::lazy(Array<int>(Shape{5}, 1))
                         .zip_with(b, [](int x, int y) { return x + y; });
  b.set({0}, 99);
  const auto out = chain.to_array(kCompiled1);
  EXPECT_EQ(sac::to_string(out), "[3,3,3,3,3]");
}

// ---- Parallel sweeps (what the sanitizer jobs exercise) -----------------

class FusionParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusionParallel, ChainResultIndependentOfThreads) {
  const Context ctx{GetParam(), 1};  // grain 1 forces splitting
  const std::int64_t R = 48;
  const std::int64_t C = 31;
  const auto other = sample_array(R, C);
  // The body records which threads evaluate it and busy-waits a little per
  // cell, so every pool worker has time to pick up a chunk if more were
  // issued than ctx.threads allows.
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto chain = With<int>()
                         .gen({0, 0}, {R, C},
                              [&](const Index& iv) {
                                {
                                  const std::lock_guard<std::mutex> lock(mu);
                                  seen.insert(std::this_thread::get_id());
                                }
                                const auto until = std::chrono::steady_clock::now() +
                                                   std::chrono::microseconds(20);
                                while (std::chrono::steady_clock::now() < until) {
                                }
                                return static_cast<int>(iv[0] * 131 + iv[1] * 17);
                              })
                         .lazy_genarray(Shape{R, C}, 0)
                         .zip_with(other, [](int v, int o) { return v ^ o; });
  const auto ref = chain.to_array(kCompiled1);
  EXPECT_EQ(chain.to_array(ctx), ref);
  const auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  const auto widen = [](int v) { return static_cast<std::int64_t>(v); };
  seen.clear();
  const std::int64_t par = chain.map(widen).fold(plus, 0, ctx);
  EXPECT_LE(seen.size(), ctx.threads) << "a parallel fold exceeded ctx.threads";
  EXPECT_EQ(par, chain.map(widen).fold(plus, 0, kCompiled1));
}

TEST_P(FusionParallel, BoolChainUnderParallelism) {
  const Context ctx{GetParam(), 1};
  const Array<bool> opts(Shape{9, 9, 9}, true);
  const auto chain = With<bool>()
                         .gen_incl_val({4, 4, 0}, {4, 4, 8}, false)
                         .gen_incl_val({4, 0, 3}, {4, 8, 3}, false)
                         .lazy_modarray(opts)
                         .map([](bool b) { return b ? 1 : 0; });
  EXPECT_EQ(chain.fold([](int a, int b) { return a + b; }, 0, ctx),
            chain.fold([](int a, int b) { return a + b; }, 0, kCompiled1));
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, FusionParallel,
                         ::testing::Values(1U, 2U, 4U, 8U));

TEST(FusionParallel, GeneratorlessChainHonoursContext) {
  // sac::map is a generator-less chain (lazy(a).map(f)) run at the default
  // context: above the grain it must split over the pool like any other
  // with-loop, into at most ctx.threads chunks.
  if (sac::sac_pool().size() < 2) {
    GTEST_SKIP() << "needs a pool of at least 2 workers";
  }
  const auto a = sample_array(256, 64);
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto stage = [&](int v) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }
    return v * 3 + 1;
  };
  Context& def = sac::default_context();
  const Context saved = def;
  def = Context{1};
  const auto ref = sac::map(a, stage);
  const auto ref_sum = sac::lazy(a).map(stage).fold(std::plus<>(), 0);
  def = Context{4, 1};
  seen.clear();
  const auto tasks_before = sac::sac_pool().tasks_executed();
  const auto par = sac::map(a, stage);
  const auto tasks_after_map = sac::sac_pool().tasks_executed();
  const std::size_t map_threads = seen.size();
  seen.clear();
  const auto par_sum = sac::lazy(a).map(stage).fold(std::plus<>(), 0, def);
  def = saved;
  EXPECT_EQ(par, ref);
  EXPECT_EQ(par_sum, ref_sum);
  EXPECT_GT(tasks_after_map, tasks_before) << "the map ran on the calling thread";
  EXPECT_GT(sac::sac_pool().tasks_executed(), tasks_after_map)
      << "the fold ran on the calling thread";
  EXPECT_LE(map_threads, 4U);
  EXPECT_LE(seen.size(), 4U);
}

TEST(FusionParallel, SparseGeneratorChainOffersThreadsChunks) {
  // One 1×1 generator over a 256×64 root: almost every cell is complement.
  // Above the grain the chain must still be cut into ctx.threads chunks —
  // counted as the pool tasks beyond the chunk the caller runs itself —
  // whatever share of the root its generators cover.
  if (sac::sac_pool().size() < 2) {
    GTEST_SKIP() << "needs a pool of at least 2 workers";
  }
  const Context ctx{4, 1};
  const auto chain = With<int>()
                         .gen({0, 0}, {1, 1}, [](const Index&) { return 7; })
                         .lazy_genarray(Shape{256, 64}, 1)
                         .map([](int v) { return v * 3; });
  const auto ref = chain.to_array(kCompiled1);
  const auto before = sac::sac_pool().tasks_executed();
  const auto arr = chain.to_array(ctx);
  const auto after_array = sac::sac_pool().tasks_executed();
  const int sum = chain.fold(std::plus<>(), 0, ctx);
  const auto after_fold = sac::sac_pool().tasks_executed();
  EXPECT_EQ(arr, ref);
  EXPECT_EQ(sum, chain.fold(std::plus<>(), 0, kCompiled1));
  EXPECT_EQ(after_array - before, ctx.threads - 1U) << "to_array chunks - 1";
  EXPECT_EQ(after_fold - after_array, ctx.threads - 1U) << "fold chunks - 1";
}
