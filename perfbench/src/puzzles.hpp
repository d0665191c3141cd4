#ifndef PERFBENCH_PUZZLES_HPP
#define PERFBENCH_PUZZLES_HPP

/// \file puzzles.hpp
/// Seeded 9×9 puzzle generation for the fig2_puzzles workload, plus the
/// bench-local grid checks its output checker uses.
///
/// The product generator (`sudoku::generate`) proves uniqueness with the
/// SaC-array solver and spends most of its time there; here the full grid
/// still comes from `sudoku::random_full_board`, but clue removal checks
/// uniqueness with a bitmask solver, so a few hundred puzzles take well
/// under a second. The same seed gives the same puzzles byte for byte.

#include <array>
#include <cstdint>
#include <vector>

#include "sudoku/board.hpp"

namespace perfbench {

/// A 9×9 grid, row-major, 0 = empty.
using Grid = std::array<std::uint8_t, 81>;

inline constexpr int kMinClues = 24;
inline constexpr int kMaxClues = 31;
/// Accepted size of a puzzle's whole search tree (count_solutions nodes),
/// about the 30th to 75th percentile of what clue removal yields. The
/// tail of hard puzzles (up to ~20x the median) would otherwise make the
/// mean work per puzzle, and so every rate, differ from seed to seed.
inline constexpr std::uint64_t kMinNodes = 96;
inline constexpr std::uint64_t kMaxNodes = 384;

/// Number of solutions of \p g, counting no further than \p limit.
/// Returns 0 for a grid that already breaks a rule. \p nodes, when given,
/// receives the number of search nodes visited: for a puzzle with a
/// unique solution and limit 2 that is its whole minimum-candidates search
/// tree — the tree the Fig. 2 network unfolds.
int count_solutions(const Grid& g, int limit, std::uint64_t* nodes = nullptr);

int clue_count(const Grid& g);

/// True when \p solution is a complete grid that obeys every row, column
/// and box rule and keeps every given of \p puzzle.
bool solves(const Grid& puzzle, const Grid& solution);

/// \p count puzzles, each with a unique solution, kMinClues..kMaxClues
/// givens and a search tree of kMinNodes..kMaxNodes nodes, derived from
/// \p seed alone.
std::vector<Grid> generate_puzzles(std::uint64_t seed, std::size_t count);

Grid to_grid(const sudoku::BoardArray& board);
sudoku::BoardArray to_board(const Grid& g);

/// splitmix64: the benchmark's seed-derivation step (fully specified, so
/// inputs do not depend on a standard library's distribution code).
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench

#endif
