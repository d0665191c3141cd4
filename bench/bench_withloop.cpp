/// With-loop vs hand loop for the SaC layer of the sudoku boxes
/// (`sacpp.withloop_vs_hand`). Times the product's `options_at`,
/// `is_stuck` and `find_min_trues` against loops over `Array::data()`
/// that compute the same values, on the committed corpus boards after
/// `compute_opts`. Both sides run on this thread (every with-loop here is
/// below the parallel grain); each figure is the best of kReps short passes
/// of thread CPU time, the two sides' passes alternating, so other
/// tenants' load inflates neither side.
///
/// *Enforces* `is_stuck` and `find_min_trues` at <= kBar times their hand
/// loop (exit 1 on a miss, exit 2 if the two sides disagree). The
/// `options_at` ratio is printed, not gated: it is one 9-cell fold, whose
/// per-call bookkeeping a hand loop of nine loads does not have.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "sudoku/corpus.hpp"
#include "sudoku/rules.hpp"

namespace {

constexpr double kBar = 15.0;
/// Many short passes: the best of them is a pass no other tenant's burst
/// reached, on both sides.
constexpr int kReps = 201;

struct Position {
  sudoku::BoardArray board;
  sudoku::OptsArray opts;
  std::pair<int, int> empty;  ///< the first empty cell: options_at's input
};

std::pair<int, int> first_empty(const sudoku::BoardArray& b) {
  const int N = static_cast<int>(b.shape().extent(0));
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      if (b[{i, j}] == 0) {
        return {i, j};
      }
    }
  }
  return {0, 0};
}

std::vector<Position> positions() {
  std::vector<Position> out;
  for (const char* name : {"easy", "medium", "hard", "escargot"}) {
    sudoku::BoardArray board = sudoku::corpus_board(name);
    sudoku::OptsArray opts = sudoku::compute_opts(board).second;
    const auto empty = first_empty(board);
    out.push_back(Position{std::move(board), std::move(opts), empty});
  }
  return out;
}

// ---- hand loops over the row-major storage -------------------------------
//
// Out of line, like the library functions they are timed against, so that
// their code does not depend on the timing loop they are called from.

[[gnu::noinline]] int hand_options_at(const sudoku::OptsArray& opts, int i, int j) {
  const std::int64_t N = opts.shape().extent(2);
  const auto* p = opts.data().data() + (i * N + j) * N;
  int n = 0;
  for (std::int64_t k = 0; k < N; ++k) {
    n += p[k] != 0 ? 1 : 0;
  }
  return n;
}

[[gnu::noinline]] bool hand_is_stuck(const sudoku::BoardArray& board,
                                     const sudoku::OptsArray& opts) {
  const int N = static_cast<int>(board.shape().extent(0));
  const int* b = board.data().data();
  bool stuck = false;
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      // Every cell, like the with-loop's fold: no short circuit.
      if (b[i * N + j] == 0 && hand_options_at(opts, i, j) == 0) {
        stuck = true;
      }
    }
  }
  return stuck;
}

[[gnu::noinline]] std::optional<std::pair<int, int>> hand_find_min_trues(
    const sudoku::BoardArray& board, const sudoku::OptsArray& opts) {
  const int N = static_cast<int>(board.shape().extent(0));
  const int* b = board.data().data();
  int best = N + 1;
  std::optional<std::pair<int, int>> pos;
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) {
      const int c = b[i * N + j] != 0 ? N + 1 : hand_options_at(opts, i, j);
      if (c < best) {
        best = c;
        pos = std::make_pair(i, j);
      }
    }
  }
  return pos;
}

// ---- timing ---------------------------------------------------------------

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

volatile std::int64_t g_sink = 0;

/// Nanoseconds per call of \p call(position), over one pass of \p calls
/// calls per position.
template <class F>
double ns_per_call(const std::vector<Position>& ps, int calls, const F& call) {
  std::int64_t acc = 0;
  const double t0 = thread_cpu_ns();
  for (const Position& p : ps) {
    for (int c = 0; c < calls; ++c) {
      // A compiler barrier: no call is hoisted out of the loop or merged.
      asm volatile("" ::: "memory");
      acc += call(p);
    }
  }
  const auto total = ps.size() * static_cast<std::size_t>(calls);
  const double ns = (thread_cpu_ns() - t0) / static_cast<double>(total);
  g_sink = g_sink + acc;
  return ns;
}

struct Row {
  const char* name;
  double wl_ns;
  double hand_ns;
  bool gated;
};

/// Best of kReps for each side; the sides alternate pass by pass, so a
/// change in the host's speed reaches both. \p calls per position and
/// pass keeps a hand-loop pass well above the clock's own cost.
template <class W, class H>
Row measure(const char* name, const std::vector<Position>& ps, int calls, const W& wl,
            const H& hand, bool gated) {
  Row r{name, 0, 0, gated};
  for (int rep = 0; rep < kReps; ++rep) {
    const double w = ns_per_call(ps, calls, wl);
    const double h = ns_per_call(ps, calls, hand);
    r.wl_ns = rep == 0 ? w : std::min(r.wl_ns, w);
    r.hand_ns = rep == 0 ? h : std::min(r.hand_ns, h);
  }
  return r;
}

std::int64_t encode(const std::optional<std::pair<int, int>>& pos) {
  return pos ? pos->first * 100 + pos->second : -1;
}

}  // namespace

int main() {
  const std::vector<Position> ps = positions();

  // Both sides must compute the same values before their times compare.
  for (const Position& p : ps) {
    const auto [i, j] = p.empty;
    if (sudoku::options_at(p.opts, i, j) != hand_options_at(p.opts, i, j) ||
        sudoku::is_stuck(p.board, p.opts) != hand_is_stuck(p.board, p.opts) ||
        sudoku::find_min_trues(p.board, p.opts) != hand_find_min_trues(p.board, p.opts)) {
      std::fprintf(stderr, "FAIL: with-loop and hand loop disagree\n");
      return 2;
    }
  }

  const auto options_call = [](const auto& fn) {
    return [fn](const Position& p) {
      const auto [i, j] = p.empty;
      return static_cast<std::int64_t>(fn(p.opts, i, j));
    };
  };
  const Row rows[] = {
      measure("options_at", ps, 500, options_call([](const auto& o, int i, int j) {
                return sudoku::options_at(o, i, j);
              }),
              options_call([](const auto& o, int i, int j) {
                return hand_options_at(o, i, j);
              }),
              false),
      measure(
          "is_stuck", ps, 25,
          [](const Position& p) {
            return static_cast<std::int64_t>(sudoku::is_stuck(p.board, p.opts));
          },
          [](const Position& p) {
            return static_cast<std::int64_t>(hand_is_stuck(p.board, p.opts));
          },
          true),
      measure(
          "find_min_trues", ps, 25,
          [](const Position& p) {
            return encode(sudoku::find_min_trues(p.board, p.opts));
          },
          [](const Position& p) { return encode(hand_find_min_trues(p.board, p.opts)); },
          true),
  };

  bool ok = true;
  std::printf("%-16s %12s %12s %8s\n", "function", "with-loop ns", "hand ns", "ratio");
  for (const Row& r : rows) {
    const double ratio = r.wl_ns / r.hand_ns;
    const bool miss = r.gated && ratio > kBar;
    ok = ok && !miss;
    std::printf("%-16s %12.1f %12.1f %7.1fx%s\n", r.name, r.wl_ns, r.hand_ns, ratio,
                r.gated ? (miss ? "  FAIL (bar <= 15x)" : "  ok (bar <= 15x)") : "");
  }
  return ok ? 0 : 1;
}
