#include "puzzles.hpp"

#include <bit>
#include <stdexcept>

#include "sudoku/generator.hpp"

namespace perfbench {

namespace {

constexpr std::uint16_t kAllDigits = 0x3FE;  // bits 1..9

int box_of(int cell) { return (cell / 27) * 3 + (cell % 9) / 3; }

/// Bitmask backtracking counter: digits used per row/column/box, always
/// branching on the empty cell with the fewest candidates.
class Counter {
 public:
  explicit Counter(const Grid& g) : cells_(g) {
    for (int c = 0; c < 81; ++c) {
      const int d = cells_[static_cast<std::size_t>(c)];
      if (d == 0) {
        continue;
      }
      const auto bit = static_cast<std::uint16_t>(1U << d);
      if (((rows_[c / 9] | cols_[c % 9] | boxes_[box_of(c)]) & bit) != 0) {
        consistent_ = false;
      }
      place(c, bit);
    }
  }

  int count(int limit) {
    if (!consistent_) {
      return 0;
    }
    limit_ = limit;
    search();
    return found_;
  }
  std::uint64_t nodes() const { return nodes_; }

 private:
  void place(int c, std::uint16_t bit) {
    rows_[c / 9] |= bit;
    cols_[c % 9] |= bit;
    boxes_[box_of(c)] |= bit;
  }
  void unplace(int c, std::uint16_t bit) {
    rows_[c / 9] &= static_cast<std::uint16_t>(~bit);
    cols_[c % 9] &= static_cast<std::uint16_t>(~bit);
    boxes_[box_of(c)] &= static_cast<std::uint16_t>(~bit);
  }

  void search() {
    ++nodes_;
    int best = -1;
    std::uint16_t best_mask = 0;
    int best_n = 10;
    for (int c = 0; c < 81; ++c) {
      if (cells_[static_cast<std::size_t>(c)] != 0) {
        continue;
      }
      const auto mask = static_cast<std::uint16_t>(
          kAllDigits & ~(rows_[c / 9] | cols_[c % 9] | boxes_[box_of(c)]));
      const int n = std::popcount(mask);
      if (n < best_n) {
        best = c;
        best_mask = mask;
        best_n = n;
        if (n <= 1) {
          break;
        }
      }
    }
    if (best < 0) {
      ++found_;
      return;
    }
    for (std::uint16_t m = best_mask; m != 0 && found_ < limit_;
         m = static_cast<std::uint16_t>(m & (m - 1))) {
      const auto bit = static_cast<std::uint16_t>(m & -m);
      cells_[static_cast<std::size_t>(best)] =
          static_cast<std::uint8_t>(std::countr_zero(bit));
      place(best, bit);
      search();
      unplace(best, bit);
    }
    cells_[static_cast<std::size_t>(best)] = 0;
  }

  Grid cells_;
  std::uint16_t rows_[9] = {};
  std::uint16_t cols_[9] = {};
  std::uint16_t boxes_[9] = {};
  bool consistent_ = true;
  int limit_ = 1;
  int found_ = 0;
  std::uint64_t nodes_ = 0;
};

/// One puzzle from one derived seed; false when greedy removal could not
/// get down to kMaxClues givens or the search tree is outside the band
/// (the caller moves on to the next seed).
bool make_puzzle(std::uint64_t seed, Grid& out) {
  const Grid full = to_grid(sudoku::random_full_board(3, seed));
  std::uint64_t state = seed;
  auto next = [&state] { return state = mix64(state); };
  const int target = kMinClues + static_cast<int>(next() % (kMaxClues - kMinClues + 1));
  std::array<int, 81> order{};
  for (int i = 0; i < 81; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  for (int i = 80; i > 0; --i) {
    const auto j = static_cast<int>(next() % static_cast<std::uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  Grid g = full;
  int clues = 81;
  for (const int cell : order) {
    if (clues == target) {
      break;
    }
    const auto at = static_cast<std::size_t>(cell);
    const std::uint8_t keep = g[at];
    g[at] = 0;
    if (count_solutions(g, 2) == 1) {
      --clues;
    } else {
      g[at] = keep;
    }
  }
  out = g;
  std::uint64_t nodes = 0;
  count_solutions(g, 2, &nodes);
  return clues <= kMaxClues && nodes >= kMinNodes && nodes <= kMaxNodes;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int count_solutions(const Grid& g, int limit, std::uint64_t* nodes) {
  Counter c(g);
  const int n = c.count(limit);
  if (nodes != nullptr) {
    *nodes = c.nodes();
  }
  return n;
}

int clue_count(const Grid& g) {
  int n = 0;
  for (const std::uint8_t d : g) {
    n += d != 0 ? 1 : 0;
  }
  return n;
}

bool solves(const Grid& puzzle, const Grid& solution) {
  std::uint16_t rows[9] = {};
  std::uint16_t cols[9] = {};
  std::uint16_t boxes[9] = {};
  for (int c = 0; c < 81; ++c) {
    const auto at = static_cast<std::size_t>(c);
    const int d = solution[at];
    if (d < 1 || d > 9 || (puzzle[at] != 0 && puzzle[at] != d)) {
      return false;
    }
    const auto bit = static_cast<std::uint16_t>(1U << d);
    rows[c / 9] |= bit;
    cols[c % 9] |= bit;
    boxes[box_of(c)] |= bit;
  }
  for (int i = 0; i < 9; ++i) {
    if (rows[i] != kAllDigits || cols[i] != kAllDigits || boxes[i] != kAllDigits) {
      return false;
    }
  }
  return true;
}

std::vector<Grid> generate_puzzles(std::uint64_t seed, std::size_t count) {
  std::vector<Grid> out;
  out.reserve(count);
  std::uint64_t stream = mix64(seed ^ 0x5eedULL);
  while (out.size() < count) {
    stream = mix64(stream);
    Grid g{};
    if (make_puzzle(stream, g)) {
      out.push_back(g);
    }
  }
  return out;
}

Grid to_grid(const sudoku::BoardArray& board) {
  const auto& cells = board.data();
  if (board.dim() != 2 || cells.size() != 81) {
    throw std::invalid_argument("perfbench: expected a 9x9 board");
  }
  Grid g{};
  for (std::size_t i = 0; i < 81; ++i) {
    const int d = cells[i];
    if (d < 0 || d > 9) {
      throw std::invalid_argument("perfbench: board cell out of range");
    }
    g[i] = static_cast<std::uint8_t>(d);
  }
  return g;
}

sudoku::BoardArray to_board(const Grid& g) {
  return sudoku::BoardArray(sac::Shape({9, 9}), std::vector<int>(g.begin(), g.end()));
}

}  // namespace perfbench
