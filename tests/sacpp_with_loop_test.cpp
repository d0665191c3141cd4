/// With-loop semantics: every concrete example from the paper's Section 2,
/// generator precedence, modarray, folds, striding, and the central
/// data-parallel property (results independent of thread count).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <random>
#include <set>
#include <thread>

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

  // A rank-1 generator longer than SegmentPlan::kMaxSegmentLen: its one
  // run is split into several segments, which the chunks then share.
  const std::int64_t L = 2 * sac::SegmentPlan::kMaxSegmentLen + 5;
  const auto row = With<int>()
                       .gen({3}, {L}, [](const Index& iv) { return static_cast<int>(iv[0] % 1009); })
                       .gen_val({L - 7}, {L - 2}, -5);
  const auto row_ref = Ref::genarray(row, Shape{L}, -1);
  EXPECT_EQ(row.genarray(Shape{L}, -1, ctx), row_ref);
  EXPECT_EQ(row.genarray(Shape{L}, -1, seq), row_ref);
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

  // Rank 1 past SegmentPlan::kMaxSegmentLen: a split run folds in order.
  const std::int64_t L = 2 * sac::SegmentPlan::kMaxSegmentLen + 5;
  const auto plus = [](std::int64_t a, std::int64_t b) { return a + b; };
  const auto row = With<std::int64_t>().gen({1}, {L}, [](const Index& iv) { return iv[0]; });
  EXPECT_EQ(row.fold(plus, 0, ctx), L * (L - 1) / 2);
  EXPECT_EQ(row.fold(plus, 0, ctx), Ref::fold(row, plus, 0));

  // A parallel fold runs at most ctx.threads chunks at once, so no more
  // than that many distinct threads evaluate its body. The busy-wait gives
  // every pool worker time to pick up a chunk if more were issued.
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto spin_sum =
      With<std::int64_t>()
          .gen({0, 0}, {64, 32},
               [&](const Index& iv) {
                 {
                   const std::lock_guard<std::mutex> lock(mu);
                   seen.insert(std::this_thread::get_id());
                 }
                 const auto until =
                     std::chrono::steady_clock::now() + std::chrono::microseconds(20);
                 while (std::chrono::steady_clock::now() < until) {
                 }
                 return iv[0] + iv[1];
               })
          .fold(plus, 0, ctx);
  EXPECT_EQ(spin_sum, 32 * (63 * 64 / 2) + 64 * (31 * 32 / 2));
  EXPECT_LE(seen.size(), ctx.threads);
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

// ---- Reentrancy: a with-loop inside a with-loop body ---------------------
//
// Every body evaluation of the outer loop runs an inner loop, the shape of
// is_stuck (whose body runs options_at's fold). Both levels are parallel,
// so inner loops build their own indices while the outer one is in use, on
// the evaluating thread and on workers that help in a join; the outer
// body reads its index again after the inner loop returns. Each level runs
// on the compiled engine at `ctx`, or on the reference engine when `ctx`
// is null.

namespace {

const Context kNested{4, 1};

Array<int> sample_cube() {
  std::vector<int> data;
  for (int i = 0; i < 16 * 12 * 9; ++i) {
    data.push_back(i * 37 % 101 - 50);
  }
  return Array<int>(Shape{16, 12, 9}, std::move(data));
}

int nested_fold(const Array<int>& cube, const Context* ctx) {
  const std::int64_t R = cube.shape().extent(0);
  const std::int64_t C = cube.shape().extent(1);
  const std::int64_t K = cube.shape().extent(2);
  const auto fold = [ctx](const With<int>& w) {
    const auto plus = [](int a, int b) { return a + b; };
    return ctx != nullptr ? w.fold(plus, 0, *ctx) : Ref::fold(w, plus, 0);
  };
  return fold(With<int>().gen({0, 0}, {R, C}, [&](const Index& iv) {
    const std::int64_t i = iv[0];
    const std::int64_t j = iv[1];
    // A C×K slab: C segments, so the inner fold splits too.
    const int slab = fold(With<int>().gen(
        {i, 0, 0}, {i + 1, C, K},
        [&cube, j](const Index& jv) { return cube[jv] * (jv[1] == j ? 3 : 1); }));
    return slab * static_cast<int>(iv[1] + 1) + static_cast<int>(iv[0]);
  }));
}

Array<int> nested_genarray(const Array<int>& cube, const Context* ctx) {
  const std::int64_t R = cube.shape().extent(0);
  const std::int64_t C = cube.shape().extent(1);
  const std::int64_t K = cube.shape().extent(2);
  const auto genarray = [ctx](const With<int>& w, const Shape& shape) {
    return ctx != nullptr ? w.genarray(shape, -1, *ctx) : Ref::genarray(w, shape, -1);
  };
  return genarray(
      With<int>().gen({0, 0}, {R, C},
                      [&](const Index& iv) {
                        const std::int64_t i = iv[0];
                        const Array<int> slab = genarray(
                            With<int>().gen({0, 0}, {C, K},
                                            [&cube, i](const Index& jv) {
                                              return cube[{i, jv[0], jv[1]}] * 2 + 1;
                                            }),
                            Shape{C, K});
                        return slab[{iv[1], iv[0] % K}] +
                               static_cast<int>(iv[0] * 7 + iv[1]);
                      }),
      Shape{R, C});
}

}  // namespace

TEST(WithLoopReentrancy, FoldWhoseBodyRunsAFold) {
  const auto cube = sample_cube();
  const auto tasks_before = sac::sac_pool().tasks_executed();
  EXPECT_EQ(nested_fold(cube, &kNested), nested_fold(cube, nullptr));
  EXPECT_GT(sac::sac_pool().tasks_executed(), tasks_before) << "ran sequentially";
}

TEST(WithLoopReentrancy, GenarrayWhoseBodyRunsAGenarray) {
  const auto cube = sample_cube();
  const auto tasks_before = sac::sac_pool().tasks_executed();
  EXPECT_EQ(nested_genarray(cube, &kNested), nested_genarray(cube, nullptr));
  EXPECT_GT(sac::sac_pool().tasks_executed(), tasks_before) << "ran sequentially";
}

// ---- Randomized compiled-vs-reference equivalence -----------------------
//
// The two engines share nothing but the generator list: the reference engine
// (with_loop_reference.hpp) walks elements recursively and calls each body
// once per cell; the compiled engine runs whole rows through the body's row
// runner and decomposes into row segments with setup-time overlap
// resolution. Bit-identical results over random shapes/generators/
// striding are the strongest cheap evidence the decomposition is right.

namespace {

const Context kCompiled1{1, 1024};
const Context kPar4{4, 1};

/// The rank and extent ranges a random case draws from, and the least
/// extent of a generator along each axis.
struct CaseRanges {
  int rank_lo;
  int rank_hi;
  int ext_lo;
  int ext_hi;
  int min_width;
};
/// The paper's ranks (every sudoku array is rank 2 or 3).
constexpr CaseRanges kLowRanks{0, 3, 1, 9, 0};
/// Rows longer than the row runner's chunk (sac::detail::kRowChunk) and,
/// under kPar4, runs split into several plan segments.
constexpr CaseRanges kLongRows{1, 2, 1, 300, 0};
/// Ranks past sac::Index's inline capacity (4): shapes, bounds, strides
/// and body indices all spill to the heap. Generators are never empty:
/// at these ranks a generator with any empty axis — most of them, with
/// bounds drawn freely — never reaches a body.
constexpr CaseRanges kHighRanks{4, 7, 1, 3, 1};

struct RandomCase {
  With<int> with;
  Shape shape;
};

RandomCase random_case(std::mt19937& rng, const CaseRanges& r) {
  std::uniform_int_distribution<int> rank_d(r.rank_lo, r.rank_hi);
  std::uniform_int_distribution<int> ext_d(r.ext_lo, r.ext_hi);
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
      const std::int64_t dim = dims[static_cast<std::size_t>(a)];
      std::uniform_int_distribution<std::int64_t> lo_d(0, dim - r.min_width);
      const std::int64_t lo = lo_d(rng);
      std::uniform_int_distribution<std::int64_t> hi_d(lo + r.min_width, dim);
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

void check_genarray(std::uint32_t seed, int trials, const CaseRanges& ranges) {
  std::mt19937 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const RandomCase c = random_case(rng, ranges);
    const auto ref = Ref::genarray(c.with, c.shape, -7);
    const auto com = c.with.genarray(c.shape, -7, kCompiled1);
    ASSERT_EQ(com, ref) << "trial " << trial << " shape " << c.shape.to_string();
    ASSERT_EQ(c.with.genarray(c.shape, -7, kPar4), ref)
        << "parallel trial " << trial;
    ASSERT_EQ(c.with.lazy_genarray(c.shape, -7).to_array(kPar4), ref)
        << "fused trial " << trial;
  }
}

void check_modarray(std::uint32_t seed, int trials, const CaseRanges& ranges) {
  std::mt19937 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const RandomCase c = random_case(rng, ranges);
    Array<int> src(c.shape, 0);
    auto& buf = src.mutable_data();
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<int>(rng() % 100);
    }
    const auto ref = Ref::modarray(c.with, src);
    ASSERT_EQ(c.with.modarray(src, kCompiled1), ref) << "trial " << trial;
    ASSERT_EQ(c.with.modarray(src, kPar4), ref) << "parallel trial " << trial;
  }
}

// Fold must see every member of every generator (no overlap resolution);
// + over int is associative with identity 0 (parallel partials each start
// from the neutral, so it must be the combine identity, as in SaC).
void check_fold(std::uint32_t seed, int trials, const CaseRanges& ranges) {
  std::mt19937 rng(seed);
  const auto plus = [](int a, int b) { return a + b; };
  for (int trial = 0; trial < trials; ++trial) {
    const RandomCase c = random_case(rng, ranges);
    const int ref = Ref::fold(c.with, plus, 0);
    ASSERT_EQ(c.with.fold(plus, 0, kCompiled1), ref) << "trial " << trial;
    ASSERT_EQ(c.with.fold(plus, 0, kPar4), ref) << "parallel trial " << trial;
  }
}

}  // namespace

TEST(WithLoopEquivalence, RandomGenarrayCompiledMatchesReference) {
  check_genarray(20260808, 300, kLowRanks);
  check_genarray(71, 60, kHighRanks);
  check_genarray(81, 40, kLongRows);
}

TEST(WithLoopEquivalence, RandomModarrayCompiledMatchesReference) {
  check_modarray(977, 200, kLowRanks);
  check_modarray(72, 60, kHighRanks);
  check_modarray(82, 40, kLongRows);
}

TEST(WithLoopEquivalence, RandomFoldCompiledMatchesReference) {
  check_fold(4242, 200, kLowRanks);
  check_fold(73, 60, kHighRanks);
  check_fold(83, 40, kLongRows);
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

// ---- Body kinds ------------------------------------------------------------
//
// `gen` stores any callable behind one row runner per body type: small
// bodies inline, larger ones on the heap. Whatever the kind, every engine
// path must agree with the oracle, which calls the body cell by cell; the
// rows here (150 cells) cross the runner's chunk.

namespace {

int plane_body(const Index& iv) { return static_cast<int>(iv[0] * 1009 + iv[1] * 7); }

/// genarray, modarray, fold and a fused chain of \p w over a 40x150 shape,
/// sequential and parallel, against the oracle; also through a copy of
/// \p w (body storage is copied with the with-loop).
void expect_body_matches_reference(const With<int>& w) {
  const Shape shape{40, 150};
  Array<int> src(shape, 0);
  auto& buf = src.mutable_data();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<int>(i % 97);
  }
  const auto plus = [](int a, int b) { return a + b; };
  const With<int> copy = w;
  for (const With<int>* x : {&w, &copy}) {
    const auto ref = Ref::genarray(*x, shape, -3);
    const auto mod_ref = Ref::modarray(*x, src);
    const int fold_ref = Ref::fold(*x, plus, 0);
    for (const Context& ctx : {kCompiled1, kPar4}) {
      EXPECT_EQ(x->genarray(shape, -3, ctx), ref);
      EXPECT_EQ(x->modarray(src, ctx), mod_ref);
      EXPECT_EQ(x->fold(plus, 0, ctx), fold_ref);
      EXPECT_EQ(x->lazy_genarray(shape, -3).to_array(ctx), ref);
    }
  }
}

}  // namespace

TEST(WithLoopBodyKinds, StdFunctionBody) {
  const std::function<int(const Index&)> f = [](const Index& iv) {
    return static_cast<int>(iv[0] - 3 * iv[1]);
  };
  expect_body_matches_reference(
      With<int>().gen({1, 0}, {40, 150}, f).gen({0, 5}, {3, 150}, f));
  // A std::function of another signature is a body like any callable.
  const std::function<long(const Index&)> g = [](const Index& iv) {
    return static_cast<long>(iv[1] * iv[0] % 11);
  };
  expect_body_matches_reference(With<int>().gen({2, 1}, {37, 150}, g).gen({0, 0}, {9, 9}, f));
  // An empty one fails when called, as a std::function does.
  const std::function<int(const Index&)> empty;
  const std::function<long(const Index&)> empty_long;
  for (const Context& ctx : {kCompiled1, kPar4}) {
    EXPECT_THROW(With<int>().gen({0, 0}, {4, 4}, empty).genarray(Shape{4, 4}, 0, ctx),
                 std::bad_function_call);
    EXPECT_THROW(With<int>().gen({0, 0}, {4, 4}, empty_long).fold(std::plus<>(), 0, ctx),
                 std::bad_function_call);
  }
}

TEST(WithLoopBodyKinds, FunctionPointerBody) {
  expect_body_matches_reference(
      With<int>().gen({0, 2}, {39, 150}, &plane_body).gen_incl({4, 0}, {9, 149},
                                                                plane_body));
}

TEST(WithLoopBodyKinds, LambdaCapturingMoreThan16Bytes) {
  const std::int64_t a = 3;
  const std::int64_t b = -5;
  const std::int64_t c = 11;
  // 24 and 48 bytes of captures: past std::function's inline buffer.
  const auto three = [a, b, c](const Index& iv) {
    return static_cast<int>(a * iv[0] + b * iv[1] + c);
  };
  const std::array<std::int64_t, 6> k{1, 2, 3, 4, 5, 6};
  const auto six = [k](const Index& iv) {
    return static_cast<int>(k[static_cast<std::size_t>(iv[1] % 6)] * iv[0]);
  };
  static_assert(sizeof(three) == 24 && sizeof(six) == 48);
  expect_body_matches_reference(
      With<int>().gen({0, 0}, {40, 150}, three).gen({7, 9}, {30, 140}, six));
}

TEST(WithLoopBodyKinds, BodyThrowingMidRowReachesTheCaller) {
  struct BodyError : std::runtime_error {
    BodyError() : std::runtime_error("body failed") {}
  };
  // Row 5 of the generator fails at its 100th cell, with cells before it
  // in the same row already evaluated.
  const auto w = With<int>().gen({0, 0}, {40, 150}, [](const Index& iv) {
    if (iv[0] == 5 && iv[1] == 100) {
      throw BodyError();
    }
    return static_cast<int>(iv[0] + iv[1]);
  });
  const Shape shape{40, 150};
  const Array<int> src(shape, 7);
  const Array<int> snapshot = src;
  const auto plus = [](int a, int b) { return a + b; };
  for (const Context& ctx : {kCompiled1, kPar4}) {
    EXPECT_THROW(w.genarray(shape, 0, ctx), BodyError);
    EXPECT_THROW(w.modarray(src, ctx), BodyError);
    EXPECT_THROW(w.fold(plus, 0, ctx), BodyError);
    EXPECT_THROW(w.lazy_modarray(src).to_array(ctx), BodyError);
    // `snapshot` shares src's buffer, so compare with a fresh array too: a
    // modarray writing into the shared buffer would change both.
    EXPECT_EQ(src, snapshot);
    EXPECT_EQ(src.data(), Array<int>(shape, 7).data());
  }
}
