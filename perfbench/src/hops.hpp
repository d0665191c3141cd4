#ifndef PERFBENCH_HOPS_HPP
#define PERFBENCH_HOPS_HPP

/// \file hops.hpp
/// The hop-heavy record topology shared by hop_stream and tenant_det:
///
///   [{x,<b0>} -> {x,<t>=<b0>%4,<v>=<b0>%97}] || ... || [{x,<b7>} -> ...]
///     .. ( [{<v>} -> {<v>=<v>+1}] .. step .. [{<v>} -> {<v>=(<v>*3)%1009}]
///          .. step .. [{<t>,<v>} -> {<t>,<v>,<w>=<t>+<v>}] ) !! <t>
///
/// A record enters one of eight best-match branches by its `<bN>` label,
/// is split by `<t>` into one of four linear filter→box→filter→box→filter
/// runs, and leaves — about ten entity deliveries per record, with the
/// boxes doing one multiply-add each, so the cost is coordination.
/// tenant_det uses the det split `!` in place of `!!`.

#include <cstdint>
#include <vector>

#include "snet/filter.hpp"
#include "snet/net.hpp"
#include "snet/record.hpp"

namespace perfbench {

inline constexpr int kHopBranches = 8;
inline constexpr int kHopSplitWidth = 4;

/// The topology; \p det selects the deterministic split.
snet::Net hop_net(bool det);

/// One generated input: its payload and the branch key.
struct HopInput {
  std::int64_t x = 0;
  std::int64_t key = 0;
  int branch = 0;
};

/// \p count inputs derived from \p seed alone.
std::vector<HopInput> hop_inputs(std::uint64_t seed, std::size_t count);

/// The injected record for item \p id (carries the `<id>` tag the checker
/// and the tracer key on).
snet::Record hop_record(const HopInput& in, std::int64_t id);

/// What the topology must produce for \p in: the sequential reference.
struct HopOutput {
  std::int64_t x = 0;
  std::int64_t t = 0;
  std::int64_t v = 0;
  std::int64_t w = 0;
  bool operator==(const HopOutput&) const = default;
};
HopOutput hop_expected(const HopInput& in);

/// Reads the payload of an output record; false when a label is missing
/// or has the wrong type.
bool hop_read(const snet::Record& r, HopOutput& out);

/// The topology's user code — a branch filter, then the run's filters and
/// step boxes — applied to one record in one thread with no runtime: the
/// same computation as a sequential program (the reference of
/// coordination_overhead, as the sequential solver is for Fig. 2).
class HopSequential {
 public:
  HopSequential();
  snet::Record run(const HopInput& in, std::int64_t id) const;

 private:
  std::vector<snet::FilterSpec> branches_;
  std::vector<snet::FilterSpec> run_;
  snet::Signature step_sig_;
};

/// The item id an output record carries, or -1.
std::int64_t item_of(const snet::Record& r);

}  // namespace perfbench

#endif
