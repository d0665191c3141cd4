#include "sudoku/rules.hpp"

#include "sacpp/with_loop.hpp"

namespace sudoku {

OptsArray initial_opts(int N) {
  return OptsArray(sac::Shape{N, N, N}, true);
}

std::pair<BoardArray, OptsArray> add_number(int i, int j, int k, BoardArray board,
                                            OptsArray opts) {
  const int N = board_size(board);
  const int n = board_box(board);
  if (i < 0 || i >= N || j < 0 || j >= N || k < 1 || k > N) {
    throw SudokuError("addNumber(" + std::to_string(i) + "," + std::to_string(j) +
                      "," + std::to_string(k) + ") out of range for N=" +
                      std::to_string(N));
  }
  // board[i,j] = k;
  board.set({i, j}, k);
  // k = k-1; is = (i/3)*3; js = (j/3)*3;   (3 generalises to n)
  const std::int64_t k0 = k - 1;
  const std::int64_t is = (static_cast<std::int64_t>(i) / n) * n;
  const std::int64_t js = (static_cast<std::int64_t>(j) / n) * n;
  const std::int64_t I = i;
  const std::int64_t J = j;
  // The paper's four-generator modarray-with-loop, verbatim:
  //   ([i,j,0] <= iv <= [i,j,8])          : false;   -- all options at (i,j)
  //   ([i,0,k] <= iv <= [i,8,k])          : false;   -- k in row i
  //   ([0,j,k] <= iv <= [8,j,k])          : false;   -- k in column j
  //   ([is,js,k] <= iv <= [is+2,js+2,k])  : false;   -- k in the box
  opts = sac::With<bool>()
             .gen_incl_val({I, J, 0}, {I, J, N - 1}, false)
             .gen_incl_val({I, 0, k0}, {I, N - 1, k0}, false)
             .gen_incl_val({0, J, k0}, {N - 1, J, k0}, false)
             .gen_incl_val({is, js, k0}, {is + n - 1, js + n - 1, k0}, false)
             .modarray(std::move(opts));
  return {std::move(board), std::move(opts)};
}

std::pair<BoardArray, OptsArray> compute_opts(BoardArray board) {
  const int N = board_size(board);
  OptsArray opts = initial_opts(N);
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      const int k = board[{i, j}];
      if (k != 0) {
        auto [b, o] = add_number(i, j, k, std::move(board), std::move(opts));
        board = std::move(b);
        opts = std::move(o);
      }
    }
  }
  return {std::move(board), std::move(opts)};
}

int options_at(const OptsArray& opts, int i, int j) {
  const std::int64_t N = opts.shape().extent(2);
  const std::int64_t I = i;
  const std::int64_t J = j;
  // SaC: fold-with-loop over the option vector of one cell, in the paper's
  // form. The row is one contiguous run: the engine evaluates it with one
  // row-runner call, the body and the combine inlined.
  return sac::With<int>()
      .gen({I, J, 0}, {I + 1, J + 1, N},
           [&](const sac::Index& iv) { return opts[iv] ? 1 : 0; })
      .fold([](int a, int b) { return a + b; }, 0);
}

bool is_stuck(const BoardArray& board, const OptsArray& opts) {
  const std::int64_t N = board_size(board);
  // Disjunctive fold: some empty cell has no options left.
  return sac::With<bool>()
      .gen({0, 0}, {N, N},
           [&](const sac::Index& iv) {
             if (board[iv] != 0) {
               return false;
             }
             return options_at(opts, static_cast<int>(iv[0]),
                               static_cast<int>(iv[1])) == 0;
           })
      .fold([](bool a, bool b) { return a || b; }, false);
}

std::pair<BoardArray, OptsArray> propagate_singles(BoardArray board, OptsArray opts) {
  const int N = board_size(board);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < N; ++i) {
      for (int j = 0; j < N; ++j) {
        if (board[{i, j}] != 0 || options_at(opts, i, j) != 1) {
          continue;
        }
        for (int k = 1; k <= N; ++k) {
          if (opts[{i, j, k - 1}]) {
            auto [b, o] = add_number(i, j, k, std::move(board), std::move(opts));
            board = std::move(b);
            opts = std::move(o);
            changed = true;
            break;
          }
        }
      }
    }
  }
  return {std::move(board), std::move(opts)};
}

std::optional<std::pair<int, int>> find_first(const BoardArray& board) {
  const int N = board_size(board);
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      if (board[{i, j}] == 0) {
        return std::make_pair(i, j);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::pair<int, int>> find_min_trues(const BoardArray& board,
                                                  const OptsArray& opts) {
  const std::int64_t N = board_size(board);
  // SaC-style: materialise the per-cell option counts with a
  // genarray-with-loop (filled cells get a sentinel), then locate the
  // minimum. The body captures only two references, so storing it
  // allocates nothing.
  const sac::Array<int> counts =
      sac::With<int>()
          .gen({0, 0}, {N, N},
               [&board, &opts](const sac::Index& iv) {
                 if (board[iv] != 0) {
                   // sentinel: not free
                   return static_cast<int>(board.shape().extent(0)) + 1;
                 }
                 return options_at(opts, static_cast<int>(iv[0]),
                                   static_cast<int>(iv[1]));
               })
          .genarray(sac::Shape{N, N}, static_cast<int>(N) + 1);
  int best = static_cast<int>(N) + 1;
  std::optional<std::pair<int, int>> pos;
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      const int c = counts[{i, j}];
      if (c < best) {
        best = c;
        pos = std::make_pair(i, j);
      }
    }
  }
  return pos;
}

}  // namespace sudoku
