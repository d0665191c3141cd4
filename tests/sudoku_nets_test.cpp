/// The hybrid SaC/S-Net solvers (paper §5): Figures 1-3 as running
/// networks, including the structural claims the paper makes about their
/// dynamic unfolding.

#include <gtest/gtest.h>

#include "sudoku/corpus.hpp"
#include "sudoku/generator.hpp"
#include "sudoku/nets.hpp"
#include "sudoku/solver.hpp"

using namespace sudoku;

namespace {
snet::Options workers(unsigned w) {
  snet::Options o;
  o.workers = w;
  return o;
}
}  // namespace

TEST(Fig1, SignatureMatchesPaper) {
  const auto net = fig1_net();
  EXPECT_EQ(snet::describe(net), "computeOpts .. (solveOneLevel ** {<done>})");
  const auto sig = snet::infer(net);
  EXPECT_EQ(sig.input.to_string(), "{board}");
  EXPECT_EQ(sig.output.to_string(), "{board, <done>}");
}

TEST(Fig1, SolvesAndMatchesSequentialSolver) {
  const auto puzzle = corpus_board("easy");
  const auto seq = solve_board(puzzle);
  const auto sol = solve_with_net(fig1_net(), puzzle);
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(*sol, seq.board);
}

TEST(Fig1, UniquePuzzleYieldsExactlyOneDoneRecord) {
  const auto records = run_board(fig1_net(), corpus_board("medium"));
  std::size_t done = 0;
  for (const auto& r : records) {
    done += r.has_tag("done") ? 1U : 0U;
  }
  EXPECT_EQ(done, 1U);
}

TEST(Fig1, UnsolvableBoardProducesNoOutput) {
  auto b = empty_board(3);
  for (int j = 0; j < 8; ++j) {
    b.set({0, j}, j + 1);
  }
  b.set({1, 8}, 9);
  const auto records = run_board(fig1_net(), b);
  EXPECT_TRUE(records.empty()) << "stuck branches die silently (paper Fig. 1)";
}

TEST(Fig1, SerialUnfoldingBoundedByEmptyCells) {
  // "this unfolding cannot lead to pipelines longer than 81 replicas" —
  // generally: one level per placed number, bounded by #empty cells (+1
  // tap that only ever forwards <done> records).
  const auto puzzle = corpus_board("easy");
  const int empties = 81 - level(puzzle);
  snet::Network net(fig1_net());
  net.input().inject(board_record(puzzle));
  net.output().collect();
  const auto stats = net.stats();
  const auto replicas = stats.count_containing("box:solveOneLevel");
  EXPECT_LE(replicas, static_cast<std::size_t>(empties) + 1);
  EXPECT_GT(replicas, 0U);
  EXPECT_LE(stats.count_containing("/stage"), static_cast<std::size_t>(empties) + 2);
}

TEST(Fig2, SignatureAndStructure) {
  const auto net = fig2_net();
  EXPECT_EQ(snet::describe(net),
            "computeOpts .. [{} -> {<k>=1}] .. ((solveOneLevel !! <k>) ** {<done>})");
  const auto sig = snet::infer(net);
  EXPECT_EQ(sig.input.to_string(), "{board}");
}

TEST(Fig2, SolvesAndMatchesSequentialSolver) {
  const auto puzzle = corpus_board("easy");
  const auto seq = solve_board(puzzle);
  const auto sol = solve_with_net(fig2_net(), puzzle, workers(2));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(*sol, seq.board);
}

TEST(Fig2, PerStageSplitBoundedByBoardSize) {
  // "no more than 9 replicas of the solveOneLevel box will be created
  //  [per stage] as the value of k is always between 0 and 8" (1..9 here:
  //  k is the number being examined).
  const auto puzzle = corpus_board("medium");
  snet::Network net(fig2_net(), workers(2));
  net.input().inject(board_record(puzzle));
  net.output().collect();
  const auto stats = net.stats();
  // Per split dispatcher: count distinct replica instances under it.
  for (const auto& e : stats.entities) {
    if (e.name.find("/split") != std::string::npos &&
        e.name.find("box:") == std::string::npos) {
      continue;  // dispatcher itself
    }
  }
  // Count solveOneLevel instances per stage prefix.
  std::map<std::string, int> per_stage;
  for (const auto& e : stats.entities) {
    const auto pos = e.name.find("box:solveOneLevel");
    if (pos == std::string::npos) {
      continue;
    }
    // name: net/star/repK/split[v]/box:solveOneLevel — key by repK.
    const auto rep = e.name.substr(0, e.name.find("/split"));
    per_stage[rep] += 1;
  }
  EXPECT_FALSE(per_stage.empty());
  for (const auto& [stage, count] : per_stage) {
    EXPECT_LE(count, 9) << stage;
  }
  // Global bound from the paper: 9 x 81 = 729.
  EXPECT_LE(stats.count_containing("box:solveOneLevel"), 729U);
}

TEST(Fig3, SignatureAndStructure) {
  const auto net = fig3_net();
  const auto sig = snet::infer(net);
  EXPECT_EQ(sig.input.to_string(), "{board}");
  // Output records carry board+opts (+k, level through inheritance).
  EXPECT_EQ(sig.output.variants().size(), 1U);
  EXPECT_TRUE(sig.output.variants()[0].contains(snet::field_label("board")));
  EXPECT_TRUE(sig.output.variants()[0].contains(snet::field_label("opts")));
  EXPECT_TRUE(sig.output.variants()[0].contains(snet::tag_label("level")));
}

TEST(Fig3, SolvesAndMatchesSequentialSolver) {
  const auto puzzle = corpus_board("easy");
  const auto seq = solve_board(puzzle);
  const auto sol = solve_with_net(fig3_net(), puzzle, workers(2));
  ASSERT_TRUE(sol.has_value());
  EXPECT_EQ(*sol, seq.board);
}

TEST(Fig3, ThrottleCapsParallelWidth) {
  // "we reduce all potential values for <k> to the range 0 to 3, which
  // implicitly limits the parallel unfolding to a maximum of 4 instances."
  for (const int m : {1, 2, 4}) {
    snet::Network net(fig3_net(Fig3Params{.throttle = m, .level_threshold = 40}),
                      workers(2));
    net.input().inject(board_record(corpus_board("medium")));
    net.output().collect();
    const auto stats = net.stats();
    std::map<std::string, int> per_stage;
    for (const auto& e : stats.entities) {
      if (e.name.find("box:solveOneLevel") == std::string::npos) {
        continue;
      }
      const auto rep = e.name.substr(0, e.name.find("/split"));
      per_stage[rep] += 1;
    }
    for (const auto& [stage, count] : per_stage) {
      EXPECT_LE(count, m) << "throttle " << m << " at " << stage;
    }
  }
}

TEST(Fig3, LevelGuardBoundsPipelineDepth) {
  // Exit guard <level> > T caps the chain at T - givens + 1 stages (the
  // first stage sees boards at level = #givens).
  const auto puzzle = corpus_board("easy");  // 30 givens
  const int threshold = 40;
  snet::Network net(fig3_net(Fig3Params{.throttle = 4, .level_threshold = threshold}),
                    workers(2));
  net.input().inject(board_record(puzzle));
  net.output().collect();
  const auto stats = net.stats();
  const auto stages = stats.count_containing("/stage");
  EXPECT_LE(stages, static_cast<std::size_t>(threshold - 30 + 2));
}

TEST(Fig3, ExactlyOneValidSolutionAmongOutputs) {
  const auto records = run_board(fig3_net(), corpus_board("medium"), workers(2));
  EXPECT_FALSE(records.empty());
  EXPECT_EQ(solutions_in(records).size(), 1U)
      << "unique puzzle: one completed board, other exits are stuck partials";
}

TEST(Nets, FourByFourAcrossAllThreeNetworks) {
  const auto puzzle = corpus_board("mini4");
  const auto seq = solve_board(puzzle);
  ASSERT_TRUE(seq.completed);
  for (const auto& [name, net] :
       {std::pair{"fig1", fig1_net()}, std::pair{"fig2", fig2_net()},
        std::pair{"fig3", fig3_net(Fig3Params{.throttle = 2, .level_threshold = 8})}}) {
    const auto sol = solve_with_net(net, puzzle);
    ASSERT_TRUE(sol.has_value()) << name;
    EXPECT_EQ(*sol, seq.board) << name;
  }
}

TEST(Nets, GeneratedPuzzlesSolveIdenticallyAcrossNetworks) {
  // Property sweep: every network agrees with the sequential solver on
  // generated unique-solution puzzles. The fourth net is Fig. 2 with the
  // deterministic split and star, the only sudoku-sized run of the det
  // combinators.
  const snet::Net fig2_det =
      compute_opts_box() >> snet::filter("{} -> {<k>=1}") >>
      snet::star_det(snet::split_det(solve_one_level_k_box(), "k"), "{<done>}");
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto puzzle =
        generate(GenOptions{.n = 3, .clues = 34, .seed = seed, .ensure_unique = true});
    const auto seq = solve_board(puzzle);
    ASSERT_TRUE(seq.completed);
    for (const auto& net : {fig1_net(), fig2_net(), fig3_net(), fig2_det}) {
      const auto sol = solve_with_net(net, puzzle, workers(2));
      ASSERT_TRUE(sol.has_value()) << "seed " << seed;
      EXPECT_EQ(*sol, seq.board) << "seed " << seed;
    }
  }
}

TEST(Nets, StreamObserverSeesBoards) {
  // "Debugging the concurrent behaviour becomes rather straightforward as
  // all streams can be observed individually."
  std::atomic<int> sightings{0};
  snet::Options opts;
  opts.trace = [&](const std::string& entity, const snet::Record& r) {
    if (entity.find("box:solveOneLevel") != std::string::npos &&
        r.has_field("board")) {
      sightings.fetch_add(1);
    }
  };
  snet::Network net(fig1_net(), opts);
  net.input().inject(board_record(corpus_board("mini4")));
  net.output().collect();
  EXPECT_GT(sightings.load(), 0);
}

TEST(Nets, MultipleBoardsThroughOneNetwork) {
  // The network is a reusable stream transformer, not a one-shot call.
  snet::Network net(fig1_net(), workers(2));
  const auto p1 = corpus_board("easy");
  const auto p2 = corpus_board("medium");
  net.input().inject(board_record(p1));
  net.input().inject(board_record(p2));
  const auto records = net.output().collect();
  const auto sols = solutions_in(records);
  ASSERT_EQ(sols.size(), 2U);
  EXPECT_TRUE((solves(p1, sols[0]) && solves(p2, sols[1])) ||
              (solves(p2, sols[0]) && solves(p1, sols[1])));
}
