/// Pinned-seed schedule regressions: one known-interesting SimExecutor
/// schedule per protocol scenario, replayed on every test run. The
/// schedcheck sweep explores fresh seeds; these pins make sure the
/// specific interleavings that exercise the tricky transitions —
/// a producer stalling mid-batch, output crossing the credit bound, a
/// FailFast landing with records still in flight — never silently stop
/// being covered (a schedule drifting to triviality shows up as a step-
/// count collapse, a protocol regression as the violation itself).

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "runtime/sim_executor.hpp"
#include "snet/simcheck.hpp"

using snetsac::runtime::SimExecutor;

namespace {

snet::simcheck::RunResult run_pinned(const std::string& scenario,
                                     std::uint64_t seed,
                                     SimExecutor::Strategy strategy) {
  SimExecutor::Options opts;
  opts.seed = seed;
  opts.strategy = strategy;
  // Throws ProtocolInvariantError — failing the test with the full
  // decision trace — on any violation under this exact schedule.
  return snet::simcheck::run_scenario(scenario, opts);
}

}  // namespace

TEST(SchedcheckReplay, StallMidBatchPinnedSchedule) {
  const auto r =
      run_pinned("stall-mid-batch", 1717, SimExecutor::Strategy::kPct);
  // The scenario moves 6 records through a 4-way fanout into a bounded
  // inbox: a schedule that somehow bypassed the stall machinery entirely
  // would collapse far below this many yield points.
  EXPECT_GT(r.steps, 30U) << "pinned schedule degenerated — re-pin the seed";
}

TEST(SchedcheckReplay, DeferredFlushPinnedSchedule) {
  const auto r =
      run_pinned("deferred-flush", 421, SimExecutor::Strategy::kRandom);
  EXPECT_GT(r.steps, 10U) << "pinned schedule degenerated — re-pin the seed";
}

TEST(SchedcheckReplay, SyncFailFastPinnedSchedule) {
  const auto r =
      run_pinned("sync-failfast", 97, SimExecutor::Strategy::kPct);
  EXPECT_GT(r.steps, 5U) << "pinned schedule degenerated — re-pin the seed";
}

TEST(SchedcheckReplay, FusedStallPinnedSchedule) {
  const auto r = run_pinned("fused-stall", 2024, SimExecutor::Strategy::kPct);
  // Six records fan out to eighteen through a fused segment into a
  // two-slot inbox: the head must have parked on the sink's credit.
  EXPECT_GT(r.steps, 25U) << "pinned schedule degenerated — re-pin the seed";
  EXPECT_GE(r.suspensions, 1U) << "the fused head never stalled";
}

TEST(SchedcheckReplay, PinnedSchedulesAreDeterministic) {
  // The reproducibility contract the failure reports rely on: the same
  // seed must execute the identical decision sequence.
  const auto a = run_pinned("det-spill", 7, SimExecutor::Strategy::kPct);
  const auto b = run_pinned("det-spill", 7, SimExecutor::Strategy::kPct);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.choices, b.choices);
  EXPECT_EQ(a.option_counts, b.option_counts);
}

TEST(SchedcheckReplay, ChoiceLogReplayReproducesTheSchedule) {
  // A recorded PCT run handed back as a replay prefix must execute the
  // very same schedule — this is what "reproduce from the printed seed"
  // and the DFS sibling walk are built on.
  const auto ref = run_pinned("drr-flood", 33, SimExecutor::Strategy::kPct);
  SimExecutor::Options replay;
  replay.strategy = SimExecutor::Strategy::kReplay;
  replay.replay = ref.choices;
  const auto again = snet::simcheck::run_scenario("drr-flood", replay);
  EXPECT_EQ(again.choices, ref.choices);
  EXPECT_EQ(again.steps, ref.steps);
}

TEST(SchedcheckReplay, RoutedInstantiatePinnedSchedule) {
  const auto r = run_pinned("routed-instantiate", 31, SimExecutor::Strategy::kPct);
  // Nine records through a split and two unfolding star stages at inbox
  // cap 1: producers instantiate replicas while resolving their routers,
  // then park on the inboxes they just created.
  EXPECT_GT(r.steps, 20U) << "pinned schedule degenerated — re-pin the seed";
  EXPECT_GE(r.suspensions, 1U) << "no producer ever stalled on a fresh replica";
}
