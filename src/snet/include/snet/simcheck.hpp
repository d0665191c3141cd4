#ifndef SNETSAC_SNET_SIMCHECK_HPP
#define SNETSAC_SNET_SIMCHECK_HPP

/// \file simcheck.hpp
/// Protocol scenarios for deterministic schedule exploration.
///
/// Each scenario builds a small Network on a seedable SimExecutor
/// (runtime/sim_executor.hpp) and drives one of the protocol flows the
/// concurrency layer must keep correct under *every* interleaving:
/// mid-batch producer stalls, per-session output order across the credit
/// bound, det-buffer Spill and FailFast, DRR arbitration under flood, and a
/// fused segment's head stalling on its inline stages' emissions. The
/// SimExecutor serialises all quanta onto the calling thread and lets a
/// strategy (PCT priorities, uniform random, or exact replay) pick the
/// next runnable task, so one seed == one schedule, reproducible forever.
///
/// After every task (every yield point) the harness re-checks
/// Network::check_protocol_invariants — the conservation laws — and each
/// scenario ends in Network::wait() plus a quiescent check. Violations,
/// wedges (a join no pending task can satisfy) and wrong outputs all
/// surface as runtime::ProtocolInvariantError carrying the decision
/// trace; the driver (tools/schedcheck) prints the seed that found it.

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sim_executor.hpp"

namespace snet::simcheck {

/// The schedule a finished run executed, in SimExecutor replay format.
/// `choices[i]` of `option_counts[i]` pending tasks was picked at decision
/// i — the frontier the bounded-DFS driver enumerates siblings of.
struct RunResult {
  std::uint64_t steps = 0;
  std::vector<std::uint32_t> choices;
  std::vector<std::uint32_t> option_counts;
  /// Credit-backpressure suspensions of the scenario's network
  /// (NetworkStats::suspensions).
  std::uint64_t suspensions = 0;
};

/// Registered scenario names, in a stable order.
const std::vector<std::string>& scenario_names();

/// Runs scenario \p name on a fresh SimExecutor configured by \p opts.
/// Throws runtime::ProtocolInvariantError (with the schedule trace in the
/// message) on any protocol violation, std::invalid_argument for an
/// unknown name. Deterministic: same name + same opts => same run.
RunResult run_scenario(const std::string& name,
                       const snetsac::runtime::SimExecutor::Options& opts);

}  // namespace snet::simcheck

#endif
