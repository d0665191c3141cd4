#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// The three workloads. Each is a closed loop driven by one client thread
/// over a pool of `RunConfig::pool` executor threads, and each returns
/// every metric of its run mode (see measure.hpp).

#include "measure.hpp"

namespace perfbench {

/// The paper's Fig. 2 network on seeded 9×9 puzzles, two in flight,
/// interleaved in blocks with the sequential solver on the same puzzles.
Outcome run_fig2_puzzles(const RunConfig& cfg);

/// Tiny integer records through the hop-heavy non-det topology, one
/// session, a bounded window in flight.
Outcome run_hop_stream(const RunConfig& cfg);

/// Three weighted sessions over the det variant of the same topology,
/// with det buffering capped so records spill to disk.
Outcome run_tenant_det(const RunConfig& cfg);

}  // namespace perfbench

#endif
