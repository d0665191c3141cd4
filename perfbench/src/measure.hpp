#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

/// \file measure.hpp
/// What every workload shares: the run configuration, the phase record a
/// closed loop fills, the metric catalogue, and the traced run's layer
/// table.
///
/// A run with `--trace 0` measures one untraced phase of `--seconds` and
/// reports the end-to-end metrics. A run with `--trace 1` measures an
/// untraced phase and then a traced phase of half that length each, on
/// fresh networks over the same inputs; it checks that both phases gave
/// the same outputs and reports the per-layer metrics: program counters
/// from the untraced phase, spans and deliveries from the traced one.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.hpp"
#include "sysinfo.hpp"
#include "snet/network.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Executor threads: one core is left to the client thread.
  unsigned pool = 1;
  /// Where result files and spill files go (inside the working directory).
  std::string out_dir;
  /// Network constructions (each with its warm-up) timed for setup_s.
  int setups = 15;
};

/// NetworkStats counters summed over entities and sessions.
struct Counters {
  std::uint64_t quanta = 0;
  std::uint64_t steals = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t records_in = 0;
  std::uint64_t injected = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t turns = 0;
  std::uint64_t spilled = 0;
  std::uint64_t spill_bytes = 0;
};
Counters counters(const snet::NetworkStats& s);
Counters operator-(const Counters& a, const Counters& b);

/// Box entities created by replication (star `/rep` or split `[k]`).
std::size_t replica_boxes(const snet::NetworkStats& s);

/// A slice of a phase. On a VM whose host is busy, the hypervisor steals
/// CPU from this VM's vCPUs, and a stolen vCPU stalls every pipeline stage
/// that waits on it: on a 4-vCPU VM, 10% steal cost hop_stream about 30%
/// of its rate.
/// The end-to-end metrics are therefore medians over the windows whose
/// steal is within kStealSlack of the run's least-stolen window (see
/// calm() in stats.hpp) — all windows on a quiet host.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t items = 0;
  double steal = 0;  ///< share of machine CPU time stolen (steal_share)
  /// The sequential reference run right after the window: its wall time
  /// and the items it did (the window's puzzles on fig2, a burst of the
  /// sequential program on hop_stream).
  double ref_s = 0;
  std::uint64_t ref_items = 0;
  /// Units of work in the reference run, all of about the same cost:
  /// search nodes on fig2, records on hop_stream.
  std::uint64_t ref_work = 0;
  /// The window's samples in Phase::latency_ms: [latency_begin, latency_end).
  std::size_t latency_begin = 0;
  std::size_t latency_end = 0;
  double closed_at = 0;  ///< wall_s() when the window closed
};

/// One measured phase of a closed loop.
struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t items = 0;
  std::vector<Window> windows;
  /// Inject-to-output latency of the sampled items, in completion order.
  std::vector<double> latency_ms;
  Counters delta;
  std::int64_t det_buffered_peak = 0;
  std::size_t entities = 0;
  std::size_t replicas = 0;
  std::uint64_t try_calls = 0;
  std::uint64_t try_refused = 0;
  /// Per-thread CPU (traced phase only).
  std::map<int, std::int64_t> threads_before;
  std::map<int, std::int64_t> threads_after;

  double items_per_s() const { return wall_s > 0 ? items / wall_s : 0; }
  double per_item(double total) const { return items > 0 ? total / items : 0; }
};

/// Records the network-side end of a phase: counter deltas against \p c0,
/// the det high-water mark and the unfolded entity counts.
void finish_counters(Phase& phase, snet::Network& net, const Counters& c0);

/// Windows per phase of a time-bound closed loop.
inline constexpr int kWindows = 40;

/// Starts and stops a phase's clocks and counters around a network, and
/// cuts the phase into kWindows windows of \p budget_s / kWindows.
class PhaseClock {
 public:
  PhaseClock(Phase& phase, snet::Network& net, bool per_thread, double budget_s);
  /// Called by the loop after it counted items; closes the current window
  /// when its time is up and returns true when it did.
  bool tick();
  /// Restarts the current window: the time, items and latency samples
  /// since the last window closed (a drain and a sequential reference
  /// burst) are not part of the phase.
  void resume();
  /// Closes the phase (call once, when the loop stops injecting).
  void stop();

 private:
  void close_window(double now);

  Phase& phase_;
  snet::Network& net_;
  bool per_thread_;
  double window_s_;
  double wall0_;
  double cpu0_;
  double window_wall0_;
  double window_cpu0_;
  MachineTicks window_ticks0_;
  std::uint64_t window_items0_ = 0;
  std::size_t window_latency0_ = 0;
  Counters c0_;
};

/// Ordered metric list printed as the result line's "metrics" object.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void set(const std::string& name, double value, const std::string& unit);
};

/// Extra facts for the result file (sample counts, percentiles used,
/// workload parameters): key -> JSON-encoded value.
using Facts = std::vector<std::pair<std::string, std::string>>;
std::string json_string(const std::string& s);
std::string json_number(double v);

/// What a workload run hands back to main.
struct Outcome {
  bool correct = true;
  std::string failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  Facts facts;
  std::string layer_table;
  std::string options;  ///< JSON object of the Options used
};

/// Adds one phase's ledger to the outcome; a failed ledger fails the run.
void account(Outcome& out, const Ledger& ledger, const std::string& phase);

/// The end-to-end metrics of an untraced phase: setup_s, items_per_s,
/// latency_p50_ms, latency_p99_ms, cpu_us_per_item and
/// coordination_overhead (sample counts, steal and peak RSS go to
/// \p facts).
void end_to_end(const Phase& phase, double setup_s, Metrics& m, Facts& facts);

/// Inputs to the per-layer metrics every workload shares.
struct LayerInputs {
  const Phase* untraced = nullptr;
  const Phase* traced = nullptr;
  const TraceTotals* totals = nullptr;
  int client_tid = 0;
  double construct_ms = 0;
  double verify_ms = 0;
  double inputs_s = 0;
};

/// Fills every per-layer metric from the catalogue (zero where the layer
/// is idle on this workload; workloads then set their own), builds the
/// layer table and reports trace.layer_sum_error.
void per_layer(const LayerInputs& in, Outcome& out);

/// Median wall time of \p n timed `snet::verify` calls on \p topology.
double median_verify_ms(const snet::Net& topology, int n);

/// Options as a JSON object, for the result file.
std::string options_json(const snet::Options& o);

}  // namespace perfbench

#endif
