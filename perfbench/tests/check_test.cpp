#include "check.hpp"

#include <gtest/gtest.h>

#include "hops.hpp"
#include "puzzles.hpp"
#include "snet/value.hpp"

namespace perfbench {
namespace {

TEST(Ledger, AllDeliveredOnceIsOk) {
  Ledger l;
  l.expect(3);
  for (int i = 0; i < 3; ++i) {
    l.deliver(i, true);
  }
  EXPECT_TRUE(l.ok());
  EXPECT_EQ(l.attempted(), 3U);
}

TEST(Ledger, CatchesCorruptedMissingAndDuplicated) {
  Ledger l;
  l.expect(4);
  l.deliver(0, false);  // corrupted
  l.deliver(1, true);
  l.deliver(1, true);   // duplicated
  l.deliver(3, true);   // item 2 missing
  EXPECT_EQ(l.wrong(), 1U);
  EXPECT_EQ(l.duplicated(), 1U);
  EXPECT_EQ(l.missing(), 1U);
  EXPECT_EQ(l.failed(), 3U);
  EXPECT_FALSE(l.ok());
}

TEST(Ledger, UnknownItemsFail) {
  Ledger l;
  l.expect(1);
  l.deliver(0, true);
  l.deliver(7, true);
  l.deliver(-1, true);
  EXPECT_EQ(l.failed(), 2U);
}

TEST(OrderCheck, FlagsOvertakingWithinAStream) {
  OrderCheck o(2);
  EXPECT_TRUE(o.next(0, 1));
  EXPECT_TRUE(o.next(1, 0));  // streams are independent
  EXPECT_TRUE(o.next(0, 5));
  EXPECT_FALSE(o.next(0, 3));
  EXPECT_FALSE(o.next(0, 5));  // a repeat is not progress either
  EXPECT_EQ(o.violations(), 2U);
}

TEST(GridCheck, AcceptsTheSolutionAndRejectsCorruptions) {
  const Grid puzzle = generate_puzzles(11, 1).front();
  // Complete the unique solution by trying each digit in each empty cell.
  Grid solution = puzzle;
  for (std::size_t c = 0; c < 81; ++c) {
    if (solution[c] != 0) {
      continue;
    }
    for (std::uint8_t d = 1; d <= 9; ++d) {
      solution[c] = d;
      if (count_solutions(solution, 1) == 1) {
        break;
      }
    }
  }
  EXPECT_TRUE(solves(puzzle, solution));

  Grid swapped = solution;  // still a permutation per row, but breaks columns
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(solves(puzzle, swapped));

  Grid incomplete = solution;
  incomplete[40] = 0;
  EXPECT_FALSE(solves(puzzle, incomplete));

  std::size_t given = 0;
  while (puzzle[given] == 0) {
    ++given;
  }
  Grid other_puzzle = puzzle;
  other_puzzle[given] = static_cast<std::uint8_t>(puzzle[given] % 9 + 1);
  EXPECT_FALSE(solves(other_puzzle, solution));  // a given was not kept
}

TEST(HopCheck, ReadsTheExpectedPayloadAndSeesCorruption) {
  const HopInput in = hop_inputs(9, 1).front();
  const HopOutput want = hop_expected(in);
  snet::Record r;
  r.set_field("x", snet::make_value(want.x));
  r.set_tag("t", want.t);
  r.set_tag("v", want.v);
  r.set_tag("w", want.w);
  r.set_tag("id", 42);
  HopOutput got;
  ASSERT_TRUE(hop_read(r, got));
  EXPECT_EQ(got, want);
  EXPECT_EQ(item_of(r), 42);

  r.set_tag("w", want.w + 1);
  ASSERT_TRUE(hop_read(r, got));
  EXPECT_NE(got, want);

  snet::Record wrong_type = r;
  wrong_type.set_field("x", snet::make_value(static_cast<int>(want.x)));
  EXPECT_FALSE(hop_read(wrong_type, got));

  snet::Record missing = r;
  missing.remove_tag(snet::tag_label("v"));
  EXPECT_FALSE(hop_read(missing, got));
}

TEST(HopInputs, SameSeedSameInputs) {
  const auto a = hop_inputs(4, 64);
  const auto b = hop_inputs(4, 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].branch, b[i].branch);
  }
}

}  // namespace
}  // namespace perfbench
