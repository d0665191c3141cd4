/// sac::SmallVector, the container behind every SaC index vector: growth
/// from the inline buffer to the heap, copies and moves in both states, and
/// appends whose argument is one of the vector's own elements (growth must
/// build the new element before the old buffer goes, as std::vector does).
/// The strings are longer than any small-string buffer, so a read of a
/// destroyed element reads freed heap memory: the ASan build reports it.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sacpp/small_vector.hpp"

namespace {

using sac::SmallVector;
using Strings = SmallVector<std::string, 2>;

/// True while \p v's elements live in its own inline buffer.
template <class V>
bool is_inline(const V& v) {
  const std::less<const void*> before;
  const void* p = v.data();
  const void* lo = &v;
  const void* hi = &v + 1;
  return !before(p, lo) && before(p, hi);
}

std::string item(int i) {
  return "a string longer than any small-string buffer, number " + std::to_string(i);
}

Strings filled(int n) {
  Strings v;
  for (int i = 0; i < n; ++i) {
    v.push_back(item(i));
  }
  return v;
}

void expect_items(const Strings& v, int n) {
  ASSERT_EQ(v.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], item(i)) << "element " << i;
  }
}

TEST(SmallVector, GrowsFromInlineToHeapAndKeepsDoubling) {
  Strings v;
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(is_inline(v));
  for (int i = 0; i < 9; ++i) {
    v.emplace_back(item(i));
    EXPECT_EQ(is_inline(v), i < 2) << "after " << i + 1 << " elements";
    expect_items(v, i + 1);
  }
  EXPECT_EQ(v.back(), item(8));
  v.pop_back();
  expect_items(v, 8);
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(is_inline(v));  // a cleared vector keeps its heap buffer
  v.push_back(item(0));
  expect_items(v, 1);
}

TEST(SmallVector, CopiesInBothStates) {
  for (const int n : {2, 5}) {
    const Strings src = filled(n);
    const Strings copy(src);  // NOLINT(performance-unnecessary-copy-initialization)
    expect_items(copy, n);
    expect_items(src, n);
    EXPECT_NE(copy.data(), src.data());
    EXPECT_EQ(is_inline(copy), n <= 2);

    Strings assigned = filled(7);
    assigned = src;
    expect_items(assigned, n);
    Strings& self = assigned;
    assigned = self;
    expect_items(assigned, n);
  }
}

TEST(SmallVector, MovesInBothStates) {
  Strings inline_src = filled(2);
  const Strings inline_moved(std::move(inline_src));
  expect_items(inline_moved, 2);
  EXPECT_TRUE(is_inline(inline_moved));
  EXPECT_TRUE(inline_src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(is_inline(inline_src));

  Strings heap_src = filled(5);
  const std::string* buffer = heap_src.data();
  Strings heap_moved(std::move(heap_src));
  expect_items(heap_moved, 5);
  EXPECT_EQ(heap_moved.data(), buffer);  // the heap buffer changes hands
  EXPECT_TRUE(heap_src.empty());         // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(is_inline(heap_src));

  Strings target = filled(6);
  target = std::move(heap_moved);
  expect_items(target, 5);
  EXPECT_EQ(target.data(), buffer);
  target = filled(1);
  expect_items(target, 1);
  EXPECT_TRUE(is_inline(target));
}

TEST(SmallVector, CountConstructorAndEquality) {
  const SmallVector<std::int64_t, 4> zeros(3, 0);
  EXPECT_EQ(zeros, (SmallVector<std::int64_t, 4>{0, 0, 0}));
  EXPECT_FALSE(zeros == (SmallVector<std::int64_t, 4>{0, 0}));
  EXPECT_FALSE(zeros == (SmallVector<std::int64_t, 4>{0, 0, 1}));
  EXPECT_EQ((SmallVector<std::int64_t, 4>{}), (SmallVector<std::int64_t, 4>(0, 7)));

  const Strings many(5, item(3));
  ASSERT_EQ(many.size(), 5U);
  EXPECT_FALSE(is_inline(many));
  for (const std::string& s : many) {
    EXPECT_EQ(s, item(3));
  }
  EXPECT_TRUE(many == Strings(5, item(3)));
  EXPECT_FALSE(many == Strings(5, item(4)));
}

TEST(SmallVector, AppendingAnOwnElementAtFullCapacity) {
  for (const int n : {2, 4}) {  // a full inline buffer, then a full heap one
    Strings pushed = filled(n);
    pushed.push_back(pushed[0]);
    expect_items(Strings(pushed.begin(), pushed.end() - 1), n);
    EXPECT_EQ(pushed.back(), item(0)) << "push_back at capacity " << n;

    Strings emplaced = filled(n);
    emplaced.emplace_back(emplaced[static_cast<std::size_t>(n - 1)]);
    EXPECT_EQ(emplaced.back(), item(n - 1)) << "emplace_back at capacity " << n;

    Strings moved = filled(n);
    moved.push_back(std::move(moved[0]));
    EXPECT_EQ(moved.back(), item(0)) << "push_back(move) at capacity " << n;
  }
}

}  // namespace
