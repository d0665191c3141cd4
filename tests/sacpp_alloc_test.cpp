/// Heap allocations per with-loop call. A with-loop keeps up to four
/// generators inline, each body in a std::function (inline when small),
/// and its index vectors (shape extents, generator bounds, body
/// indices) are inline `sac::Index`es of rank <= 4, so a call
/// allocates only its result (and whatever copy-on-write clones its
/// arguments force) — the first call on a thread included, since no
/// per-thread state is warmed up. This binary replaces the global
/// `operator new` with a per-thread counter and checks exact counts of a
/// call made first thing on a fresh thread; they depend on the code only,
/// not on the hardware.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "sacpp/with_loop.hpp"
#include "sudoku/corpus.hpp"
#include "sudoku/rules.hpp"

namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

// gcc flags free() in a replaced operator delete as a new/free mismatch;
// here operator new is malloc, so the pairing is right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using sac::Array;
using sac::Index;
using sac::Shape;
using sac::With;

/// Allocations made by \p call as the first thing a fresh thread does.
template <class F>
std::size_t allocations_of(const F& call) {
  std::size_t made = 0;
  std::thread([&] {
    const std::size_t before = t_allocations;
    call();
    made = t_allocations - before;
  }).join();
  return made;
}

/// "medium" has 45 empty cells: is_stuck and find_min_trues run one
/// nested options_at with-loop per empty cell.
struct Position {
  sudoku::BoardArray board = sudoku::corpus_board("medium");
  sudoku::OptsArray opts = sudoku::compute_opts(board).second;
};

TEST(WithLoopAllocations, BoardPredicatesAllocateNothing) {
  const Position p;
  int options = 0;
  bool completed = true;
  bool stuck = true;
  EXPECT_EQ(allocations_of([&] { options = sudoku::options_at(p.opts, 0, 0); }), 0U);
  EXPECT_EQ(allocations_of([&] { completed = sudoku::is_completed(p.board); }), 0U);
  EXPECT_EQ(allocations_of([&] { stuck = sudoku::is_stuck(p.board, p.opts); }), 0U);
  EXPECT_GT(options, 0);
  EXPECT_FALSE(completed);
  EXPECT_FALSE(stuck);
}

TEST(WithLoopAllocations, FindMinTruesAllocatesOnlyItsCountsArray) {
  const Position p;
  std::optional<std::pair<int, int>> pos;
  // The counts genarray: the shared buffer handle and the element storage
  // (shapes keep their extents inline).
  EXPECT_EQ(allocations_of([&] { pos = sudoku::find_min_trues(p.board, p.opts); }),
            2U);
  EXPECT_TRUE(pos.has_value());
}

TEST(WithLoopAllocations, AddNumberAllocatesOnlyCopyOnWriteClones) {
  const Position p;
  const auto [i, j] = *sudoku::find_min_trues(p.board, p.opts);
  int k = 1;
  while (!p.opts[{i, j, k - 1}]) {
    ++k;
  }
  std::pair<sudoku::BoardArray, sudoku::OptsArray> next;
  // Per argument (both are copies of `p`'s arrays): the copy-on-write clone
  // of the shared buffer — a handle and its storage.
  EXPECT_EQ(
      allocations_of([&] { next = sudoku::add_number(i, j, k, p.board, p.opts); }),
      4U);
  EXPECT_EQ((next.first[{i, j}]), k);
}

TEST(WithLoopAllocations, FourGeneratorModarrayAllocatesOnlyItsResult) {
  const Array<int> src(Shape{6, 5, 4}, 7);
  Array<int> out;
  const auto axis = [](std::size_t a) {
    return [a](const Index& iv) { return static_cast<int>(iv[a]); };
  };
  const auto call = [&] {
    out = With<int>()
              .gen({0, 0, 0}, {6, 5, 1}, axis(0))
              .gen({1, 1, 0}, {3, 4, 4}, axis(1))
              .gen_val({0, 2, 2}, {6, 3, 4}, -1)
              .gen({5, 0, 1}, {6, 5, 3}, axis(2))
              .modarray(src, sac::Context{1});
  };
  // The result: the copy-on-write clone of the shared buffer — a handle
  // and its storage.
  EXPECT_EQ(allocations_of(call), 2U);
  EXPECT_EQ((out[{2, 2, 3}]), -1);
  EXPECT_EQ((out[{5, 4, 2}]), 2);
  EXPECT_EQ((out[{0, 0, 3}]), 7);
}

TEST(WithLoopAllocations, BodyFoldAllocatesNothing) {
  const Array<int> a(Shape{9, 9}, 3);
  std::int64_t sum = 0;
  const auto call = [&] {
    sum = With<std::int64_t>()
              .gen({1, 0}, {9, 9}, [&a](const Index& iv) { return a[iv] * iv[1]; })
              .fold([](std::int64_t x, std::int64_t y) { return x + y; }, 0,
                    sac::Context{1});
  };
  EXPECT_EQ(allocations_of(call), 0U);
  EXPECT_EQ(sum, 8 * 3 * 36);
}

TEST(WithLoopAllocations, BodyCapturingMoreThan16BytesAllocatesOnce) {
  // A with-loop keeps its body in a std::function, whose inline buffer
  // holds 16 bytes of trivially copyable captures in libstdc++; a larger
  // body costs one allocation, freed with the with-loop.
  const Array<int> a(Shape{9, 9}, 3);
  const std::int64_t scale = 2;
  const std::int64_t shift = 5;
  const auto plus = [](std::int64_t x, std::int64_t y) { return x + y; };
  std::int64_t sum = 0;
  const auto small = [&] {
    const auto body = [&a, scale](const Index& iv) { return a[iv] * scale + iv[0]; };
    static_assert(sizeof(body) == 16);
    sum = With<std::int64_t>().gen({0, 0}, {9, 9}, body).fold(plus, 0, sac::Context{1});
  };
  EXPECT_EQ(allocations_of(small), 0U);
  EXPECT_EQ(sum, 81 * 3 * 2 + 9 * 36);

  const auto large = [&] {
    const auto body = [&a, scale, shift](const Index& iv) {
      return a[iv] * scale + shift + iv[0];
    };
    static_assert(sizeof(body) == 24);
    sum = With<std::int64_t>().gen({0, 0}, {9, 9}, body).fold(plus, 0, sac::Context{1});
  };
  EXPECT_EQ(allocations_of(large), 1U);
  EXPECT_EQ(sum, 81 * (3 * 2 + 5) + 9 * 36);
}

}  // namespace
