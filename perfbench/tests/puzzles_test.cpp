#include "puzzles.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Puzzles, SameSeedSameBytes) {
  const auto a = generate_puzzles(7, 12);
  const auto b = generate_puzzles(7, 12);
  ASSERT_EQ(a.size(), 12U);
  EXPECT_EQ(a, b);
}

TEST(Puzzles, DifferentSeedsDiffer) {
  EXPECT_NE(generate_puzzles(1, 4), generate_puzzles(2, 4));
}

TEST(Puzzles, UniqueSolutionsWithinTheClueAndDifficultyBands) {
  for (const Grid& g : generate_puzzles(3, 16)) {
    std::uint64_t nodes = 0;
    EXPECT_EQ(count_solutions(g, 2, &nodes), 1);
    EXPECT_GE(clue_count(g), kMinClues);
    EXPECT_LE(clue_count(g), kMaxClues);
    EXPECT_GE(nodes, kMinNodes);
    EXPECT_LE(nodes, kMaxNodes);
  }
}

TEST(Puzzles, BoardRoundTrip) {
  const Grid g = generate_puzzles(5, 1).front();
  EXPECT_EQ(to_grid(to_board(g)), g);
}

TEST(Puzzles, CountSolutionsSeesAmbiguityAndContradiction) {
  Grid empty{};
  EXPECT_EQ(count_solutions(empty, 2), 2);
  Grid clash{};
  clash[0] = 5;
  clash[1] = 5;  // same row
  EXPECT_EQ(count_solutions(clash, 2), 0);
}

}  // namespace
}  // namespace perfbench
