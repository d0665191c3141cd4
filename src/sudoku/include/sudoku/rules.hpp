#ifndef SNETSAC_SUDOKU_RULES_HPP
#define SNETSAC_SUDOKU_RULES_HPP

/// \file rules.hpp
/// The paper's Section 3 SaC functions, generalised to n²×n².
///
/// The central operation is `addNumber`: place number k at (i, j) and
/// falsify every option the three sudoku rules eliminate — one
/// modarray-with-loop with four generators, transcribed directly from the
/// paper (lines 6–11 of the listing).

#include <optional>
#include <utility>

#include "sudoku/board.hpp"

namespace sudoku {

/// All-true options array for an N×N board.
OptsArray initial_opts(int N);

/// The paper's `addNumber(i, j, k, board, opts)`; k is 1-based.
/// Returns the modified (board, opts) pair.
std::pair<BoardArray, OptsArray> add_number(int i, int j, int k, BoardArray board,
                                            OptsArray opts);

/// "An initialisation phase which adds the pre-determined numbers":
/// computes the options array for a given board by repeatedly calling
/// addNumber — this is exactly the computeOpts box of Fig. 1.
std::pair<BoardArray, OptsArray> compute_opts(BoardArray board);

/// A free position exists whose options are exhausted (the search cannot
/// proceed through it): the paper's `isStuck`.
bool is_stuck(const BoardArray& board, const OptsArray& opts);

/// First empty position in row-major order: the paper's `findFirst`.
std::optional<std::pair<int, int>> find_first(const BoardArray& board);

/// Free position with the minimum number of remaining options: the
/// paper's `findMinTrues`, which keeps "the potential need for
/// back-tracking as small as possible".
std::optional<std::pair<int, int>> find_min_trues(const BoardArray& board,
                                                  const OptsArray& opts);

/// Number of remaining options at (i, j).
int options_at(const OptsArray& opts, int i, int j);

/// Extension (not in the paper): constraint propagation by naked singles —
/// repeatedly places every free cell that has exactly one remaining option
/// until a fixpoint. Pure deduction: never guesses, preserves the solution
/// set. Used by the `propagate` box of `fig2_propagated_net`.
std::pair<BoardArray, OptsArray> propagate_singles(BoardArray board, OptsArray opts);

}  // namespace sudoku

#endif
