/// With-loop semantics: every concrete example from the paper's Section 2,
/// generator precedence, modarray, folds, striding, and the central
/// data-parallel property (results independent of thread count).

#include <gtest/gtest.h>

#include <random>

#include "sacpp/io.hpp"
#include "sacpp/with_loop.hpp"
#include "with_loop_reference.hpp"

using sac::Array;
using sac::Context;
using sac::Index;
using sac::Shape;
using sac::ShapeError;
using sac::With;
using Ref = sac::testing::ReferenceEngine;

// ---- The paper's Section 2 examples, verbatim -------------------------

TEST(WithLoopPaper, UniformMatrix42) {
  // with { ([0,0] <= iv < [3,5]) : 42 } : genarray([3,5], 0)
  const auto a = With<int>().gen_val({0, 0}, {3, 5}, 42).genarray(Shape{3, 5}, 0);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ((a[{i, j}]), 42);
    }
  }
}

TEST(WithLoopPaper, IndexVectorBody) {
  // with { ([0] <= iv < [5]) : iv[0] } : genarray([5], 0)  ==  [0,1,2,3,4]
  const auto a = With<int>()
                     .gen({0}, {5}, [](const Index& iv) { return static_cast<int>(iv[0]); })
                     .genarray(Shape{5}, 0);
  EXPECT_EQ(sac::to_string(a), "[0,1,2,3,4]");
}

TEST(WithLoopPaper, DefaultFillsUncoveredCells) {
  // with { ([1] <= iv < [4]) : 42 } : genarray([5], 0)  ==  [0,42,42,42,0]
  const auto a = With<int>().gen_val({1}, {4}, 42).genarray(Shape{5}, 0);
  EXPECT_EQ(sac::to_string(a), "[0,42,42,42,0]");
}

TEST(WithLoopPaper, OverlappingGeneratorsLaterWins) {
  // with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2 } : genarray([6], 0)
  //   ==  [0,1,1,2,2,0]  — "the array's value at index location [3] ...
  //   is set to 2 rather than to 1".
  const auto a =
      With<int>().gen_val({1}, {4}, 1).gen_val({3}, {5}, 2).genarray(Shape{6}, 0);
  EXPECT_EQ(sac::to_string(a), "[0,1,1,2,2,0]");
}

TEST(WithLoopPaper, ModarrayKeepsUncoveredElements) {
  // A = [0,1,1,2,2,0];  with { ([0] <= iv < [3]) : 3 } : modarray(A)
  //   ==  [3,3,3,2,2,0]
  const auto A =
      With<int>().gen_val({1}, {4}, 1).gen_val({3}, {5}, 2).genarray(Shape{6}, 0);
  const auto B = With<int>().gen_val({0}, {3}, 3).modarray(A);
  EXPECT_EQ(sac::to_string(B), "[3,3,3,2,2,0]");
  EXPECT_EQ(sac::to_string(A), "[0,1,1,2,2,0]") << "modarray must not mutate A";
}

// ---- General genarray/modarray behaviour -------------------------------

TEST(WithLoop, InclusiveBoundsMatchPaperAddNumberStyle) {
  // ([1,1] <= iv <= [2,2]) covers a 2x2 block.
  const auto a =
      With<int>().gen_incl_val({1, 1}, {2, 2}, 5).genarray(Shape{4, 4}, 0);
  EXPECT_EQ((a[{1, 1}]), 5);
  EXPECT_EQ((a[{2, 2}]), 5);
  EXPECT_EQ((a[{0, 0}]), 0);
  EXPECT_EQ((a[{3, 3}]), 0);
}

TEST(WithLoop, EmptyGeneratorTouchesNothing) {
  const auto a = With<int>().gen_val({3}, {3}, 9).genarray(Shape{5}, 1);
  EXPECT_EQ(sac::to_string(a), "[1,1,1,1,1]");
}

TEST(WithLoop, NoGeneratorsYieldsDefaultArray) {
  const auto a = With<int>().genarray(Shape{2, 2}, 7);
  EXPECT_EQ(sac::to_string(a), "[[7,7],[7,7]]");
}

TEST(WithLoop, GeneratorOutOfBoundsRejected) {
  EXPECT_THROW(With<int>().gen_val({0}, {6}, 1).genarray(Shape{5}, 0), ShapeError);
  EXPECT_THROW(With<int>().gen_val({-1}, {2}, 1).genarray(Shape{5}, 0), ShapeError);
}

TEST(WithLoop, GeneratorRankMismatchRejected) {
  EXPECT_THROW(With<int>().gen_val({0, 0}, {2, 2}, 1).genarray(Shape{5}, 0),
               ShapeError);
  EXPECT_THROW(With<int>().gen({0}, {2, 2}, [](const Index&) { return 1; }),
               ShapeError);
}

TEST(WithLoop, ModarrayPreservesSourceShape) {
  const Array<int> src(Shape{3, 3}, 1);
  const auto out = With<int>().gen_val({1, 1}, {2, 2}, 9).modarray(src);
  EXPECT_EQ(out.shape(), src.shape());
  EXPECT_EQ((out[{1, 1}]), 9);
  EXPECT_EQ((out[{0, 0}]), 1);
}

TEST(WithLoop, RankZeroGenarray) {
  // A rank-0 with-loop assigns the single scalar position.
  const auto s = With<int>().gen_val({}, {}, 5).genarray(Shape{}, 0);
  EXPECT_TRUE(s.is_scalar());
  EXPECT_EQ(s.scalar(), 5);
}

TEST(WithLoop, BodySeesIndexVector) {
  const auto a = With<int>()
                     .gen({0, 0}, {3, 4},
                          [](const Index& iv) {
                            return static_cast<int>(10 * iv[0] + iv[1]);
                          })
                     .genarray(Shape{3, 4}, -1);
  EXPECT_EQ((a[{2, 3}]), 23);
  EXPECT_EQ((a[{0, 0}]), 0);
}

// ---- Striding (SaC step/width) -----------------------------------------

TEST(WithLoopStride, StepSelectsEveryNth) {
  const auto a =
      With<int>().gen_val({0}, {10}, 1).step({3}).genarray(Shape{10}, 0);
  EXPECT_EQ(sac::to_string(a), "[1,0,0,1,0,0,1,0,0,1]");
}

TEST(WithLoopStride, WidthSelectsBlocks) {
  const auto a = With<int>()
                     .gen_val({0}, {10}, 1)
                     .step({4})
                     .width({2})
                     .genarray(Shape{10}, 0);
  EXPECT_EQ(sac::to_string(a), "[1,1,0,0,1,1,0,0,1,1]");
}

TEST(WithLoopStride, InvalidStrideRejected) {
  EXPECT_THROW(
      With<int>().gen_val({0}, {4}, 1).step({0}).genarray(Shape{4}, 0),
      ShapeError);
  EXPECT_THROW(With<int>()
                   .gen_val({0}, {4}, 1)
                   .step({2})
                   .width({3})
                   .genarray(Shape{4}, 0),
               ShapeError);
  EXPECT_THROW(With<int>().step({2}), std::logic_error)
      << "step before any generator";
}

// ---- Folds --------------------------------------------------------------

TEST(WithLoopFold, SumOverGenerator) {
  const int sum = With<int>()
                      .gen({0}, {100}, [](const Index& iv) { return static_cast<int>(iv[0]); })
                      .fold([](int a, int b) { return a + b; }, 0);
  EXPECT_EQ(sum, 4950);
}

TEST(WithLoopFold, MultipleGeneratorsAccumulate) {
  const int sum = With<int>()
                      .gen_val({0}, {3}, 1)
                      .gen_val({0}, {4}, 10)
                      .fold([](int a, int b) { return a + b; }, 0);
  EXPECT_EQ(sum, 3 + 40);
}

TEST(WithLoopFold, BoolConjunction) {
  const bool all = With<bool>()
                       .gen({0}, {10}, [](const Index& iv) { return iv[0] < 10; })
                       .fold([](bool a, bool b) { return a && b; }, true);
  EXPECT_TRUE(all);
  const bool any = With<bool>()
                       .gen({0}, {10}, [](const Index& iv) { return iv[0] == 11; })
                       .fold([](bool a, bool b) { return a || b; }, false);
  EXPECT_FALSE(any);
}

TEST(WithLoopFold, EmptyGeneratorYieldsNeutral) {
  const int sum =
      With<int>().gen_val({2}, {2}, 5).fold([](int a, int b) { return a + b; }, 17);
  EXPECT_EQ(sum, 17);
}

// ---- Data parallelism: thread-count invariance (the SaC property) -------

class WithLoopParallel : public ::testing::TestWithParam<unsigned> {};

TEST_P(WithLoopParallel, GenarrayResultIndependentOfThreads) {
  Context ctx{GetParam(), 1};  // grain 1 forces splitting
  const std::int64_t R = 64;
  const std::int64_t C = 37;
  const auto body = [](const Index& iv) {
    return static_cast<int>(iv[0] * 131 + iv[1] * 17);
  };
  const auto par = With<int>().gen({0, 0}, {R, C}, body).genarray(Shape{R, C}, -1, ctx);
  Context seq{1, 1};
  const auto ref = With<int>().gen({0, 0}, {R, C}, body).genarray(Shape{R, C}, -1, seq);
  EXPECT_EQ(par, ref);
}

TEST_P(WithLoopParallel, OverlappingGeneratorsStayOrderedUnderParallelism) {
  Context ctx{GetParam(), 1};
  const auto a = With<int>()
                     .gen_val({0, 0}, {50, 50}, 1)
                     .gen_val({10, 10}, {40, 40}, 2)
                     .gen_val({20, 20}, {30, 30}, 3)
                     .genarray(Shape{50, 50}, 0, ctx);
  EXPECT_EQ((a[{0, 0}]), 1);
  EXPECT_EQ((a[{10, 10}]), 2);
  EXPECT_EQ((a[{25, 25}]), 3);
}

TEST_P(WithLoopParallel, FoldResultIndependentOfThreads) {
  Context ctx{GetParam(), 1};
  const std::int64_t N = 10'000;
  const auto sum = With<std::int64_t>()
                       .gen({0}, {N}, [](const Index& iv) { return iv[0]; })
                       .fold([](std::int64_t a, std::int64_t b) { return a + b; }, 0,
                             ctx);
  EXPECT_EQ(sum, N * (N - 1) / 2);
}

TEST_P(WithLoopParallel, BoolGenarrayUnderParallelism) {
  // Byte-backed bool storage: concurrent chunk writes must not interfere.
  Context ctx{GetParam(), 1};
  const auto a = With<bool>()
                     .gen({0}, {1024}, [](const Index& iv) { return iv[0] % 3 == 0; })
                     .genarray(Shape{1024}, false, ctx);
  for (std::int64_t i = 0; i < 1024; ++i) {
    EXPECT_EQ((a[{i}]), i % 3 == 0) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSweep, WithLoopParallel,
                         ::testing::Values(1U, 2U, 3U, 4U, 8U));

// ---- Typed kernel API (compiled engine) ---------------------------------

namespace {
const Context kCompiled1{1, 1024};
}  // namespace

TEST(WithLoopKernel, CoordinateBodyRank1) {
  const auto a = With<int>()
                     .gen_kernel({2}, {9}, [](std::int64_t j) { return static_cast<int>(j * j); })
                     .genarray(Shape{10}, -1, kCompiled1);
  const auto r = Ref::genarray(
      With<int>().gen_kernel({2}, {9}, [](std::int64_t j) { return static_cast<int>(j * j); }),
      Shape{10}, -1);
  EXPECT_EQ((a[{0}]), -1);
  EXPECT_EQ((a[{2}]), 4);
  EXPECT_EQ((a[{8}]), 64);
  EXPECT_EQ(a, r) << "compiled and reference kernel paths must agree";
}

TEST(WithLoopKernel, CoordinateBodyRank2) {
  const auto w = With<int>().gen_kernel({0, 0}, {7, 5}, [](std::int64_t i, std::int64_t j) {
    return static_cast<int>(10 * i + j);
  });
  const auto a = w.genarray(Shape{7, 5}, -1, kCompiled1);
  EXPECT_EQ(a, Ref::genarray(w, Shape{7, 5}, -1));
  EXPECT_EQ((a[{6, 4}]), 64);
}

TEST(WithLoopKernel, CoordinateBodyRank3) {
  const auto w = With<int>().gen_kernel(
      {0, 0, 0}, {3, 4, 5},
      [](std::int64_t i, std::int64_t j, std::int64_t k) {
        return static_cast<int>(100 * i + 10 * j + k);
      });
  const auto a = w.genarray(Shape{3, 4, 5}, -1, kCompiled1);
  EXPECT_EQ(a, Ref::genarray(w, Shape{3, 4, 5}, -1));
  EXPECT_EQ((a[{2, 3, 4}]), 234);
}

TEST(WithLoopKernel, RawSegmentKernel) {
  // The full-control form: writes out[base + (j - col_lo)] directly.
  const auto w = With<int>().gen_kernel(
      {0, 0}, {6, 8},
      [](int* out, std::int64_t base, const Index& pre, std::int64_t lo,
         std::int64_t hi) {
        int* p = out + base;
        for (std::int64_t j = lo; j < hi; ++j) {
          p[j - lo] = static_cast<int>(pre[0] * 100 + j);
        }
      });
  const auto a = w.genarray(Shape{6, 8}, -1, kCompiled1);
  EXPECT_EQ(a, Ref::genarray(w, Shape{6, 8}, -1));
  EXPECT_EQ((a[{5, 7}]), 507);
}

TEST(WithLoopKernel, CoordinateArityMustMatchRank) {
  EXPECT_THROW(With<int>()
                   .gen_kernel({0, 0}, {3, 3}, [](std::int64_t j) { return static_cast<int>(j); })
                   .genarray(Shape{3, 3}, 0, kCompiled1),
               ShapeError);
  EXPECT_THROW(Ref::genarray(With<int>().gen_kernel({0}, {3},
                                                   [](std::int64_t i, std::int64_t j) {
                                                     return static_cast<int>(i + j);
                                                   }),
                             Shape{3}, 0),
               ShapeError);
}

TEST(WithLoopKernel, KernelInFold) {
  const auto w = With<std::int64_t>().gen_kernel(
      {0, 0}, {100, 50}, [](std::int64_t i, std::int64_t j) { return i + j; });
  const auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  EXPECT_EQ(w.fold(plus, 0, kCompiled1), Ref::fold(w, plus, 0));
}

TEST(WithLoopKernel, KernelWithStriding) {
  const auto w = With<int>()
                     .gen_kernel({0, 0}, {9, 9},
                                 [](std::int64_t i, std::int64_t j) {
                                   return static_cast<int>(i * 9 + j);
                                 })
                     .step({2, 3})
                     .width({1, 2});
  EXPECT_EQ(w.genarray(Shape{9, 9}, -1, kCompiled1), Ref::genarray(w, Shape{9, 9}, -1));
}

// ---- Randomized compiled-vs-reference equivalence -----------------------
//
// The two engines share nothing but the generator list: the reference engine
// (with_loop_reference.hpp) walks elements recursively through std::function
// bodies; the compiled engine decomposes into row segments with setup-time
// overlap resolution. Bit-identical results over random shapes/generators/
// striding are the strongest cheap evidence the decomposition is right.

namespace {

struct RandomCase {
  With<int> with;
  Shape shape;
};

RandomCase random_case(std::mt19937& rng) {
  std::uniform_int_distribution<int> rank_d(0, 3);
  std::uniform_int_distribution<int> ext_d(1, 9);
  std::uniform_int_distribution<int> gens_d(0, 4);
  std::uniform_int_distribution<int> coin(0, 1);
  const int rank = rank_d(rng);
  std::vector<std::int64_t> dims;
  for (int a = 0; a < rank; ++a) {
    dims.push_back(ext_d(rng));
  }
  const Shape shape{std::vector<std::int64_t>(dims)};
  With<int> w;
  const int ngens = gens_d(rng);
  for (int g = 0; g < ngens; ++g) {
    Index lb;
    Index ub;
    for (int a = 0; a < rank; ++a) {
      std::uniform_int_distribution<std::int64_t> lo_d(0, dims[static_cast<std::size_t>(a)]);
      const std::int64_t lo = lo_d(rng);
      std::uniform_int_distribution<std::int64_t> hi_d(lo, dims[static_cast<std::size_t>(a)]);
      lb.push_back(lo);
      ub.push_back(hi_d(rng));
    }
    if (coin(rng)) {
      w.gen_val(lb, ub, 1000 + g);
    } else {
      // Deterministic iv-dependent body, distinct per generator ordinal.
      w.gen(lb, ub, [g](const Index& iv) {
        std::int64_t h = g * 7919;
        for (std::size_t a = 0; a < iv.size(); ++a) {
          h = h * 31 + iv[a] * static_cast<std::int64_t>(a + 1);
        }
        return static_cast<int>(h % 1000);
      });
    }
    if (rank > 0 && coin(rng)) {
      Index st;
      Index wd;
      std::uniform_int_distribution<std::int64_t> st_d(1, 3);
      for (int a = 0; a < rank; ++a) {
        st.push_back(st_d(rng));
      }
      for (int a = 0; a < rank; ++a) {
        std::uniform_int_distribution<std::int64_t> wd_d(1, st[static_cast<std::size_t>(a)]);
        wd.push_back(wd_d(rng));
      }
      w.step(st).width(wd);
    }
  }
  return RandomCase{std::move(w), shape};
}

}  // namespace

TEST(WithLoopEquivalence, RandomGenarrayCompiledMatchesReference) {
  std::mt19937 rng(20260808);
  const Context par4{4, 1};
  for (int trial = 0; trial < 300; ++trial) {
    const RandomCase c = random_case(rng);
    const auto ref = Ref::genarray(c.with, c.shape, -7);
    const auto com = c.with.genarray(c.shape, -7, kCompiled1);
    ASSERT_EQ(com, ref) << "trial " << trial << " shape " << c.shape.to_string();
    ASSERT_EQ(c.with.genarray(c.shape, -7, par4), ref)
        << "parallel trial " << trial;
  }
}

TEST(WithLoopEquivalence, RandomModarrayCompiledMatchesReference) {
  std::mt19937 rng(977);
  const Context par4{4, 1};
  for (int trial = 0; trial < 200; ++trial) {
    const RandomCase c = random_case(rng);
    Array<int> src(c.shape, 0);
    auto& buf = src.mutable_data();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<int>(rng() % 100);
    }
    const auto ref = Ref::modarray(c.with, src);
    ASSERT_EQ(c.with.modarray(src, kCompiled1), ref) << "trial " << trial;
    ASSERT_EQ(c.with.modarray(src, par4), ref) << "parallel trial " << trial;
  }
}

TEST(WithLoopEquivalence, RandomFoldCompiledMatchesReference) {
  // Fold must see every member of every generator (no overlap resolution);
  // + over int is associative with identity 0 (parallel partials each start
  // from the neutral, so it must be the combine identity, as in SaC).
  std::mt19937 rng(4242);
  const Context par4{4, 1};
  const auto plus = [](int a, int b) { return a + b; };
  for (int trial = 0; trial < 200; ++trial) {
    const RandomCase c = random_case(rng);
    const int ref = Ref::fold(c.with, plus, 0);
    ASSERT_EQ(c.with.fold(plus, 0, kCompiled1), ref) << "trial " << trial;
    ASSERT_EQ(c.with.fold(plus, 0, par4), ref) << "parallel trial " << trial;
  }
}

TEST(WithLoopEquivalence, RandomBoolGenarrayCompiledMatchesReference) {
  // bool is stored as one byte per element; the compiled engine must cast
  // through the storage type identically to the reference engine.
  std::mt19937 rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    std::uniform_int_distribution<std::int64_t> ext_d(1, 40);
    const std::int64_t n = ext_d(rng);
    std::uniform_int_distribution<std::int64_t> cut_d(0, n);
    const std::int64_t cut = cut_d(rng);
    const auto w = With<bool>()
                       .gen({0}, {cut}, [](const Index& iv) { return iv[0] % 2 == 0; })
                       .gen_val({cut / 2}, {cut}, true);
    const auto ref = Ref::genarray(w, Shape{n}, false);
    ASSERT_EQ(w.genarray(Shape{n}, false, kCompiled1), ref) << "trial " << trial;
  }
}
