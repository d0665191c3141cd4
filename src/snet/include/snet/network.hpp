#ifndef SNETSAC_SNET_NETWORK_HPP
#define SNETSAC_SNET_NETWORK_HPP

/// \file network.hpp
/// Network: a running instantiation of a Net topology.
///
/// Clients talk to a network through *ports* (see session.hpp):
///
///   snet::Network net(topology, opts);
///   net.input().inject(r);          // bounded, blocking under pressure
///   net.input().close();
///   for (snet::Record& out : net.output()) consume(out);
///
/// `open_session()` opens an independent logical client session over the
/// same instantiated topology; records are session-stamped on entry and
/// demultiplexed back to that session's OutputPort, so many concurrent
/// clients share one entity graph. Internally the topology unfolds —
/// demand-driven, exactly as the paper describes for the replication
/// combinators — into entities scheduled on a fixed worker pool.
/// Completion is detected by quiescence: a per-session live-record counter
/// reaches zero after the session's input was closed (dynamic unfolding
/// makes static EOS flooding awkward; counting is robust against it).
///
/// A Network is a façade over three components: the Topology (the
/// entities and their names, topology.hpp), the SessionTable (ports, DRR
/// listing, output demux, live counts and failure, session.hpp) and the
/// Interior (records held by det collectors and synchrocells, under the
/// per-session Options::det_capacity, interior.hpp). Entities call the
/// component that owns the state they touch.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/env.hpp"
#include "snet/check.hpp"
#include "snet/entity.hpp"
#include "snet/interior.hpp"
#include "snet/net.hpp"
#include "snet/scheduler.hpp"
#include "snet/session.hpp"
#include "snet/topology.hpp"

namespace snet {

/// Runtime type errors (no parallel branch matches, split tag missing...).
class NetTypeError : public std::runtime_error {
 public:
  explicit NetTypeError(const std::string& what) : std::runtime_error(what) {}
};

/// FailFast overflow policy verdict: the offending session's det/sync
/// buffering exceeded Options::det_capacity. Only that session observes
/// the error; its siblings keep running.
class SessionOverflowError : public std::runtime_error {
 public:
  explicit SessionOverflowError(const std::string& what)
      : std::runtime_error(what) {}
};

/// What to do when a session's det-collector/synchrocell buffering
/// exceeds Options::det_capacity.
enum class OverflowPolicy {
  /// Keep accepting (ordering is preserved): overflow records go to a
  /// secondary spill list and the offending session's *input dispatch* is
  /// paused until the region drains below the watermark — the spill is
  /// bounded by what was already in flight.
  Spill,
  /// Error the offending session (SessionOverflowError on its ports) and
  /// drop its overflowing records; other sessions are unaffected.
  FailFast,
};

/// What Network construction does with the whole-topology shape-flow
/// verifier's report (verify.hpp). Independent of the fail-fast signature
/// inference, which always runs: a topology `infer` rejects never
/// constructs, whatever this mode says.
enum class VerifyMode {
  /// Skip the verifier entirely.
  Off,
  /// Print every diagnostic to stderr, then construct anyway.
  Warn,
  /// Throw VerifyError when the verifier reports anything at all —
  /// warnings included (errors alone already fail construction via
  /// inference; strict mode is for promoting dead branches, never-firing
  /// synchrocells and config lints to hard failures).
  Strict,
};

struct Options {
  /// Max entity quanta of this network running concurrently on the shared
  /// executor (not a thread count — threads belong to the process-wide
  /// pool, see runtime/executor.hpp).
  unsigned workers = snetsac::runtime::default_snet_workers();
  /// Max records an entity processes per scheduling quantum (fairness);
  /// also the per-weight-unit DRR grant of the input dispatcher.
  unsigned quantum = 16;
  /// Per-entity inbox bound in messages (0 = unbounded). When a downstream
  /// inbox reaches the bound, the producing entity suspends at its next
  /// message boundary and is re-queued once the consumer drains — so total
  /// in-flight records are O(inbox_capacity × entities). A bounded
  /// network also bounds each session's input staging queue, to
  /// max(inbox_capacity, quantum × weight) records: one whole DRR turn.
  std::size_t inbox_capacity = 0;
  /// Per-session output credit account in records (0 = unbounded;
  /// overridable per session via SessionOptions::output_capacity). A
  /// session whose un-consumed output reaches the bound blocks its *own*
  /// injects until the client pops. The shared output entity never waits:
  /// records of the session already in flight when the gate closed are
  /// buffered too, so an OutputPort buffer may exceed the bound by them,
  /// and other sessions' outputs keep flowing (no cross-session
  /// head-of-line blocking). Ignored for sessions in on_output (push
  /// callback) mode.
  std::size_t output_capacity = 0;
  /// Per-session cap on records buffered *inside* det collectors and
  /// synchrocells (0 = unbounded). Ordering/joining need interior
  /// buffering by design; the cap plus `det_overflow` keeps an adversarial
  /// det-heavy tenant from growing it without bound.
  std::size_t det_capacity = 0;
  /// Policy when a session exceeds det_capacity.
  OverflowPolicy det_overflow = OverflowPolicy::Spill;
  /// Under the Spill policy, serialize overflow det/sync records to a
  /// per-network spill file (see snet/wire.hpp) and restore them on
  /// release, so an over-cap region's interior leaves memory instead of
  /// merely being throttled. False keeps the overflow in memory — the
  /// throttle-only baseline the spill test compares against.
  /// Records whose field payloads have no registered wire codec stay in
  /// memory either way (ordering is preserved across the mix).
  bool spill_to_disk = true;
  /// Directory for the spill file ("" = the system temp directory). The
  /// file is created lazily on first overflow and removed with the
  /// network.
  std::string spill_dir;
  /// Has no effect: entities always batch their emissions (see
  /// entity.hpp). Kept only because benchmark output still prints it.
  bool batching = true;
  /// Has no effect: construction always infers the signature and rejects
  /// a topology with a type error (see verify.hpp). Kept only because
  /// benchmark output still prints it.
  bool type_check = true;
  /// Whole-topology shape-flow verification at construction: dead
  /// branches, never-firing synchrocells, unroutable records, star
  /// non-progress, config lint (see verify.hpp for the catalogue and the
  /// `snetlint` tool for the standalone front-end).
  VerifyMode verify = VerifyMode::Warn;
  /// Optional per-stream observer: invoked for every record delivered to
  /// any entity ("all streams can be observed individually"). Called from
  /// worker threads; must be thread-safe.
  std::function<void(const std::string& entity, const Record&)> trace;
  /// The executor the network schedules on. Null selects the process-wide
  /// work-stealing pool (Executor::global()); schedcheck scenarios pass a
  /// SimExecutor to explore interleavings deterministically. The executor
  /// must outlive the network.
  snetsac::runtime::ExecutorIface* executor = nullptr;
};

struct EntityStats {
  std::string name;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  /// An inline stage of a fused linear segment (see serial_segments): it
  /// runs inside its segment head's quanta and owns no live inbox.
  bool fused = false;
};

/// Per-session QoS counters (one row per *live* session; released
/// sessions whose state was reclaimed no longer appear).
struct SessionStats {
  std::uint32_t id = 0;
  unsigned weight = 1;
  bool errored = false;
  /// Records of the session currently inside the network; output already
  /// buffered for the client is not live.
  std::int64_t live = 0;
  /// Un-consumed output charged against the session's credit account.
  std::int64_t output_account = 0;
  std::uint64_t produced = 0;
  /// Records the DRR input dispatcher forwarded into the entry.
  std::uint64_t forwarded = 0;
  /// DRR turns the session received at the input dispatcher.
  std::uint64_t dispatch_turns = 0;
  /// Injects that blocked on the output credit account.
  std::uint64_t credit_waits = 0;
  /// Records buffered while the session's output account was already at
  /// or over its bound (records that were in flight when the inject gate
  /// closed).
  std::uint64_t output_stalls = 0;
  /// Det/sync records accepted over the cap under the Spill policy.
  std::uint64_t spilled = 0;
};

struct NetworkStats {
  std::vector<EntityStats> entities;
  std::uint64_t injected = 0;
  std::uint64_t produced = 0;
  /// High-water mark of records inside the network (staged, in inboxes or
  /// entities); buffered output is not counted.
  std::int64_t peak_live = 0;
  /// Entity quanta this network dispatched into the shared executor.
  std::uint64_t quanta = 0;
  /// Of those, how many ran on a worker they were stolen onto — this
  /// network's share of pool-level work stealing, not the pool-wide count.
  std::uint64_t steals = 0;
  /// Times an entity suspended on a full downstream inbox (credit-based
  /// backpressure events; always 0 when unbounded). Output buffered over a
  /// session's credit bound is counted in SessionStats::output_stalls.
  std::uint64_t suspensions = 0;
  /// Client sessions opened over this network (including the default).
  std::uint64_t sessions = 0;
  /// Det/sync records currently held *in memory* inside det collectors
  /// and synchrocells, and the high-water mark. Disk-spilled records are
  /// excluded — `det_buffered_peak` staying near Options::det_capacity
  /// while `spilled` grows is what "true spill" means.
  std::int64_t det_buffered = 0;
  std::int64_t det_buffered_peak = 0;
  /// Records currently parked in the spill file / bytes ever spilled.
  std::int64_t spill_on_disk = 0;
  std::uint64_t spill_bytes = 0;
  /// Per-session QoS counters (live sessions only).
  std::vector<SessionStats> session_stats;

  std::size_t entity_count() const { return entities.size(); }
  /// Number of entities whose name contains \p needle — used to count
  /// dynamically created replicas (e.g. solveOneLevel instances).
  std::size_t count_containing(std::string_view needle) const;
  /// Sum of records_in over entities whose name contains \p needle.
  std::uint64_t records_in_containing(std::string_view needle) const;
};

class Network {
 public:
  explicit Network(Net topology, Options opts = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The statically inferred signature of the topology.
  const NetSignature& signature() const { return signature_; }

  // ------- the port/session client API ---------------------------------

  /// The default session's input port (bounded inject / try_inject /
  /// inject_all / close). The default session is created lazily on first
  /// use, so clients that only ever open_session() never owe it a close
  /// before wait().
  InputPort& input();

  /// The default session's output port (next / collect / range-for /
  /// on_output).
  OutputPort& output();

  /// Opens an independent logical client session over the shared
  /// topology. Records injected through the session's InputPort are
  /// stamped on entry and demultiplexed back to the session's OutputPort
  /// — concurrent clients do not see each other's records. \p opts fixes
  /// the session's DRR weight and output credit. Destroying the handle
  /// *releases* the session: its input closes, unconsumed output is
  /// discarded, and the session's state is reclaimed once its in-flight
  /// records drain.
  Session open_session(SessionOptions opts = {});

  /// Blocks until the whole network has quiesced: every session closed
  /// and no record in flight. Rethrows the first entity error.
  void wait();

  NetworkStats stats() const;

  /// Verifies the protocol conservation laws and throws
  /// ProtocolInvariantError on the first violation. Always compiled (the
  /// per-operation inline checks are what SNETSAC_CHECKED gates); valid at
  /// *safe points* only — between entity quanta, after wait(), or while
  /// the network is idle — because the laws are stated over multi-lock
  /// snapshots. Each component checks its own: SessionTable::check (output
  /// credit, live counts, quiescence, staging wakeups), Interior::check
  /// (interior accounts) and Topology::check (inbox wakeups).
  void check_protocol_invariants(bool expect_quiescent) const;

  // ------- runtime-internal interface (entities and components) -------
  Topology& topology() { return topology_; }
  SessionTable& sessions() { return sessions_; }
  Interior& interior() { return interior_; }
  const Options& options() const { return opts_; }
  Scheduler& scheduler() { return *sched_; }
  void note_suspension() { suspensions_.fetch_add(1, std::memory_order_relaxed); }
  std::size_t inbox_capacity() const { return opts_.inbox_capacity; }
  /// DRR grant per weight unit per turn at the input dispatcher.
  unsigned drr_grant() const { return opts_.quantum; }
  bool tracing() const { return static_cast<bool>(opts_.trace); }
  void trace_record(const Entity& target, const Record& r);

 private:
  Net topology_net_;
  Options opts_;
  NetSignature signature_;
  /// The executor every quantum and cooperative wait goes through
  /// (Options::executor, defaulting to the global work-stealing pool).
  snetsac::runtime::ExecutorIface& exec_;
  /// Declared first so it is destroyed last: entities outlive the
  /// scheduler (stopped in ~Network) and the session states.
  Topology topology_;
  std::unique_ptr<Scheduler> sched_;
  SessionTable sessions_;
  Interior interior_;
  std::atomic<std::uint64_t> suspensions_{0};
};

}  // namespace snet

#endif
