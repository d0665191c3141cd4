/// Shape and index-vector arithmetic (SaC Section 2 foundations).

#include <gtest/gtest.h>

#include <limits>

#include "sacpp/shape.hpp"

using sac::Index;
using sac::Shape;
using sac::ShapeError;

TEST(Shape, ScalarHasEmptyShapeVector) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_TRUE(s.is_scalar());
  EXPECT_EQ(s.element_count(), 1);
  EXPECT_EQ(s.to_string(), "[]");
}

TEST(Shape, ElementCountAndExtents) {
  const Shape s{3, 5};
  EXPECT_EQ(s.rank(), 2);
  EXPECT_EQ(s.extent(0), 3);
  EXPECT_EQ(s.extent(1), 5);
  EXPECT_EQ(s.element_count(), 15);
  EXPECT_EQ(s.to_string(), "[3,5]");
}

TEST(Shape, ZeroExtentMeansEmptyArray) {
  const Shape s{4, 0, 2};
  EXPECT_EQ(s.element_count(), 0);
}

TEST(Shape, NegativeExtentRejected) {
  EXPECT_THROW(Shape({-1, 2}), ShapeError);
}

TEST(Shape, RowMajorStrides) {
  const Shape s{2, 3, 4};
  const auto st = s.strides();
  ASSERT_EQ(st.size(), 3U);
  EXPECT_EQ(st[0], 12);
  EXPECT_EQ(st[1], 4);
  EXPECT_EQ(st[2], 1);
}

TEST(Shape, LinearizeRoundTrip) {
  const Shape s{3, 4, 5};
  for (std::int64_t off = 0; off < s.element_count(); ++off) {
    const Index iv = s.delinearize(off);
    EXPECT_EQ(s.linearize(iv), off);
  }
}

TEST(Shape, LinearizeChecksRankAndBounds) {
  const Shape s{3, 4};
  EXPECT_THROW(s.linearize({1}), ShapeError);
  EXPECT_THROW(s.linearize({1, 2, 3}), ShapeError);
  EXPECT_THROW(s.linearize({3, 0}), ShapeError);
  EXPECT_THROW(s.linearize({0, -1}), ShapeError);
  EXPECT_EQ(s.linearize({2, 3}), 11);
}

// Components far out of range are rejected, not overflowed into range: an
// offset accumulated from INT64_MAX would be signed overflow.
TEST(Shape, LinearizeRejectsExtremeComponents) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (int rank = 1; rank <= 5; ++rank) {
    const Shape s(Index(static_cast<std::size_t>(rank), 3));
    for (int a = 0; a < rank; ++a) {
      for (const std::int64_t c : {kMax, kMin}) {
        Index iv(static_cast<std::size_t>(rank), 2);
        iv[static_cast<std::size_t>(a)] = c;
        EXPECT_THROW(s.linearize(iv), ShapeError) << "rank " << rank << " axis " << a;
      }
    }
  }
}

TEST(Shape, Contains) {
  const Shape s{2, 2};
  EXPECT_TRUE(s.contains({0, 0}));
  EXPECT_TRUE(s.contains({1, 1}));
  EXPECT_FALSE(s.contains({2, 0}));
  EXPECT_FALSE(s.contains({0}));
}

TEST(Shape, SuffixSelectsTrailingAxes) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.suffix(0), s);
  EXPECT_EQ(s.suffix(1), (Shape{3, 4}));
  EXPECT_EQ(s.suffix(3), Shape{});
  EXPECT_THROW(s.suffix(4), ShapeError);
  EXPECT_THROW(s.suffix(-1), ShapeError);
}

TEST(Shape, ConcatShapes) {
  EXPECT_EQ(sac::concat_shapes(Shape{2}, Shape{3, 4}), (Shape{2, 3, 4}));
  EXPECT_EQ(sac::concat_shapes(Shape{}, Shape{}), Shape{});
}

TEST(Shape, EqualityAndIndexToString) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_EQ(sac::index_to_string({0, 7}), "[0,7]");
}
