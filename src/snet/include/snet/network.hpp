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
/// Resource bounds are *per tenant*: `Options::inbox_capacity` bounds the
/// interior entity inboxes (credit-based backpressure, see entity.hpp) and
/// each session's input staging queue; `Options::output_capacity` is a
/// per-session output credit account, so a slow reader throttles only its
/// own injects while other sessions keep streaming; sessions carry DRR
/// weights (`SessionOptions::weight`) honoured by the input dispatcher so
/// a hot tenant cannot monopolise entry bandwidth; and
/// `Options::det_capacity` caps per-session det-collector/synchrocell
/// buffering with a Spill-or-FailFast overflow policy.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runtime/annotations.hpp"
#include "runtime/env.hpp"
#include "snet/check.hpp"
#include "snet/entity.hpp"
#include "snet/net.hpp"
#include "snet/scheduler.hpp"
#include "snet/session.hpp"

namespace snet {

namespace wire {
class SpillStore;  // wire.hpp; the disk half of OverflowPolicy::Spill
}  // namespace wire

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

/// Linear-segment fusion plan of a serial chain: the leaves of \p serial
/// (nested serials flattened), in order, cut into the segments
/// Network::instantiate builds. A maximal run of box/filter leaves splits
/// into segments holding at most one box (`f b f b f` → `[f b f][b f]`);
/// every other leaf is a segment of its own. Every stage after a segment's
/// first is an inline stage of it: it runs inside the first's quanta, so
/// a filter never costs an entity hop, while box→box edges and the edges
/// into a synchrocell or det bracket keep their inbox (routers have none
/// to keep, see Router).
std::vector<std::vector<Net>> serial_segments(const Net& serial);

/// The fused segments (two or more stages) of \p topology, each as the
/// entity names instantiate gives its stages, head first, computed with
/// serial_segments. Names follow the default instantiation; stages inside
/// replicas created on demand carry `*` where the runtime puts the star
/// stage number or the split tag value.
std::vector<std::vector<std::string>> fused_segments(const Net& topology);

/// One router of a topology and the entities that resolve it in their own
/// thread (see Router): `input` for the client's inject and the input
/// dispatcher, a router for the one it picks next, and otherwise the
/// entities whose output feeds it.
struct RoutedEdge {
  std::string router;
  std::vector<std::string> producers;
};

/// The routers of \p topology with their producers, named as
/// Network::instantiate names them (through the same naming functions,
/// serial_segments and parallel_branches); `*` stands for a star stage
/// number or a split tag value. Every parallel, star and split has a
/// router; a det one is fed by its bracket's entry and exits through its
/// collector.
std::vector<RoutedEdge> routed_edges(const Net& topology);

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
  /// snapshots. Checks, per live session: output credit account ==
  /// buffered output records; live/interior/account counters
  /// non-negative; with \p expect_quiescent, that live records
  /// and open sessions are exactly zero; and that no staging queue holds
  /// registered credit waiters below the release watermark (a lost
  /// wakeup: credit exists, nobody was notified).
  void check_protocol_invariants(bool expect_quiescent) const;

  // ------- runtime-internal interface (used by entities/ports) ---------
  Scheduler& scheduler() { return *sched_; }
  /// The capabilities SessionState's guarded fields alias (session state
  /// lives under the network's locks; see SessionState::out_mu_).
  snetsac::runtime::Mutex& output_mutex() SNETSAC_RETURN_CAPABILITY(out_mu_) {
    return out_mu_;
  }
  snetsac::runtime::Mutex& dispatch_mutex()
      SNETSAC_RETURN_CAPABILITY(dispatch_mu_) {
    return dispatch_mu_;
  }
  void live_add(SessionState* session, std::int64_t n = 1);
  void live_sub(SessionState* session, std::int64_t n = 1);

  /// Delivers a whole quantum's staged output to the sessions under
  /// one buffer-lock acquisition with one client wakeup: each record goes
  /// to its session's sink or buffer (charging the output account), or is
  /// dropped when its session was released or failed. Never refuses.
  /// \p records is left empty.
  void push_output_batch(std::vector<Record>& records);

  /// Per-session interior (det/sync) buffering account: charges one
  /// record; false when the session is now over Options::det_capacity —
  /// the caller applies the overflow policy via spill_session /
  /// fail_session (or undoes the charge with interior_release).
  bool interior_admit(SessionState* s);
  /// Releases \p n interior charges; un-throttles the session (and pokes
  /// the input dispatcher) once it drains below the watermark.
  void interior_release(SessionState* s, std::int64_t n = 1);
  OverflowPolicy overflow_policy() const { return opts_.det_overflow; }
  /// The per-network disk spill store (wire.hpp), shared by every det
  /// collector and synchrocell; null when Options::spill_to_disk is off —
  /// callers then keep overflow records in memory (throttle-only mode).
  wire::SpillStore* spill_store() { return spill_store_.get(); }
  /// In-memory interior buffering gauge (det-collector groups + sync
  /// slots): charged when a record is held in memory, not when its bytes
  /// are on disk. Feeds NetworkStats::det_buffered{,_peak}.
  void det_buffer_add(std::int64_t n);
  void det_buffer_sub(std::int64_t n);
  /// Spill policy: pauses the session's input dispatch until its interior
  /// account drains below the watermark, and counts the spilled record.
  void spill_session(SessionState* s);
  /// FailFast policy: errors exactly this session — its ports rethrow
  /// \p err, its staged and buffered records are dropped, siblings
  /// unaffected.
  void fail_session(SessionState* s, std::exception_ptr err);

  void note_suspension() { suspensions_.fetch_add(1, std::memory_order_relaxed); }
  std::size_t inbox_capacity() const { return opts_.inbox_capacity; }
  /// DRR grant per weight unit per turn at the input dispatcher.
  unsigned drr_grant() const { return opts_.quantum; }
  void fail(std::exception_ptr err);
  bool tracing() const { return static_cast<bool>(opts_.trace); }
  void trace_record(const Entity& target, const Record& r);
  /// Instantiates a (sub)topology whose output feeds \p successor; returns
  /// the entry entity. Thread-safe (star/split call this while running).
  Entity* instantiate(const Net& node, Entity* successor, const std::string& prefix);
  /// Instantiates a parallel, star or split whose router
  /// `build(merge_target)` creates. A det combinator is bracketed: the
  /// collector `<prefix>/<kind>-coll` (feeding \p successor; kind is par,
  /// star or split) is the merge target, and the entry
  /// `<prefix>/<kind>-entry`, which forwards to the router, becomes the
  /// combinator's entry.
  Entity* instantiate_bracketed(const Net& node, Entity* successor,
                                const std::string& prefix,
                                const std::function<Entity*(Entity*)>& build);
  /// Registers an entity; returns a stable raw pointer owned by the net.
  Entity* adopt(std::unique_ptr<Entity> entity);

  // ------- input-dispatch interface (used by InputDispatchEntity) ------
  /// Moves newly listed sessions (pending input) into \p out.
  void dispatch_take_ready(std::deque<SessionState*>& out);
  /// Dispatcher-side delist after observing an empty staging queue.
  /// Returns false when a concurrent inject re-listed the session into the
  /// caller's hands — the caller keeps it on its active ring.
  bool dispatch_delist(SessionState* s);

  // ------- port-internal interface (used by InputPort/OutputPort) ------
  /// The one admission routine behind inject, try_inject and inject_all:
  /// stamps \p r with the session and hands it to the entry (or the
  /// session's staging queue). Where the output credit account or the
  /// staging queue is full it waits when \p block, else returns false
  /// with \p r handed back untouched.
  bool port_inject(SessionState& s, Record& r, bool block);
  void port_close(SessionState& s);
  std::optional<Record> port_next(SessionState& s);
  /// Moves the session's entire output buffer into \p out under one lock,
  /// releasing the whole credit span at once (the batch analogue of
  /// repeated port_next pops on a non-empty buffer). Returns the number
  /// of records appended; never blocks.
  std::size_t port_drain(SessionState& s, std::vector<Record>& out);
  void port_on_output(SessionState& s, std::function<void(Record)> callback);
  /// Session-handle destruction: closes the input, discards unconsumed
  /// output, wakes injects gated on it, and reclaims the state if
  /// the session has fully drained (else it is marked abandoned and
  /// future outputs are dropped). \p s must not be used afterwards.
  void port_release(SessionState& s);

 private:
  SessionState* new_session_state(std::uint32_t id, SessionOptions opts);
  /// The lazily created default session (id 0).
  SessionState* default_state();
  /// Pops the front of \p s's buffer and releases output credit.
  /// \p crossed reports whether the pop crossed the credit bound — the
  /// caller notifies *after* dropping out_mu_.
  Record pop_output_locked(SessionState& s, bool& crossed)
      SNETSAC_REQUIRES(out_mu_);
  /// Lists \p s with the input dispatcher (idempotent) and pokes it when
  /// the listing is new.
  void dispatch_list(SessionState* s);
  /// dispatch_list + an unconditional poke: used by un-throttle and
  /// release/fail paths, where the session may already be listed (parked
  /// on the dispatcher's ring) and the dispatcher still needs the nudge.
  void dispatch_wake(SessionState* s);
  /// The output credit gate: true once \p s's account has room. At the
  /// bound a non-blocking caller gets false; a blocking one waits through
  /// help_until and rethrows if the network or the session fails.
  bool await_output_account(SessionState& s, bool block);
  /// Waits (through help_until) until \p s's staging queue releases
  /// credit. On network/session failure it first returns the live charge
  /// of the record the caller holds, then rethrows.
  void await_staging_credit(SessionState& s);
  /// The network's first error, else \p s's fail-fast error, else null.
  std::exception_ptr failure_locked(SessionState& s) const
      SNETSAC_REQUIRES(out_mu_);
  /// Rethrows failure_locked(s), if any.
  void rethrow_failure(SessionState& s) const;
  /// Pokes every synchrocell so slots stored by dead (errored/released)
  /// sessions are evicted (see SyncEntity::on_poke).
  void poke_sync_entities();

  Net topology_;
  Options opts_;
  NetSignature signature_;
  /// The executor every quantum and cooperative wait goes through
  /// (Options::executor, defaulting to the global work-stealing pool).
  snetsac::runtime::ExecutorIface& exec_;

  mutable snetsac::runtime::Mutex reg_mu_;
  std::vector<std::unique_ptr<Entity>> entities_ SNETSAC_GUARDED_BY(reg_mu_);
  /// Synchrocell instances: fail_session and port_release poke them so
  /// slots stored by a dead session are evicted instead of holding its
  /// liveness forever.
  std::vector<Entity*> sync_entities_ SNETSAC_GUARDED_BY(reg_mu_);

  std::unique_ptr<Scheduler> sched_;
  Entity* entry_ = nullptr;
  Entity* dispatch_ = nullptr;

  std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> peak_live_{0};
  std::atomic<std::int64_t> det_buffered_{0};
  std::atomic<std::int64_t> det_buffered_peak_{0};
  /// Created at construction when the Spill policy may engage
  /// (spill_to_disk && det_capacity > 0); the file itself is lazy.
  std::unique_ptr<wire::SpillStore> spill_store_;
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> suspensions_{0};
  /// Lock-free mirror of `error_ != nullptr` so producers blocked on
  /// entry credit can observe a failure without taking out_mu_.
  std::atomic<bool> failed_{false};

  /// Live sessions by id, guarded by out_mu_. A session is erased (and
  /// freed) when its handle is released *and* its records have drained —
  /// records carry raw SessionState pointers, and live > 0 guarantees
  /// the pointee survives (the last consumer's decrement never touches
  /// the state afterwards, see live_sub).
  std::unordered_map<std::uint32_t, std::unique_ptr<SessionState>> sessions_
      SNETSAC_GUARDED_BY(out_mu_);
  std::atomic<SessionState*> default_session_{nullptr};
  std::uint64_t sessions_opened_ SNETSAC_GUARDED_BY(out_mu_) = 0;  // monotone
  std::atomic<std::uint32_t> next_session_id_{1};
  std::atomic<std::int64_t> open_sessions_{0};

  /// Input-credit handshake for blocking inject on a full staging queue.
  mutable snetsac::runtime::Mutex in_mu_;
  snetsac::runtime::CondVar in_cv_;
  std::uint64_t in_credit_epoch_ SNETSAC_GUARDED_BY(in_mu_) = 0;

  /// Sessions newly listed for input dispatch (handed to the DRR
  /// dispatcher by dispatch_take_ready). Ordered before out_mu_ when both
  /// are needed.
  mutable snetsac::runtime::Mutex dispatch_mu_;
  std::vector<SessionState*> dispatch_ready_ SNETSAC_GUARDED_BY(dispatch_mu_);
  /// Sessions currently listed (staged backlog anywhere). While zero,
  /// injects may bypass the staging queue and deliver straight to the
  /// entry — the DRR detour costs nothing until there is actual
  /// contention to arbitrate. The dispatcher flushes a session's
  /// forwarded records into the entry before it delists the session, so
  /// a zero is only observed once every record staged before it is in the
  /// entry's inbox: a bypassing inject never overtakes its own session's
  /// earlier records. A stale zero read by a concurrent injector can only
  /// let a record pass records of *other* sessions, which have no order
  /// to keep against it.
  std::atomic<std::int64_t> listed_count_{0};

  mutable snetsac::runtime::Mutex out_mu_;
  snetsac::runtime::CondVar out_cv_;
  std::uint64_t produced_ SNETSAC_GUARDED_BY(out_mu_) = 0;  // all sessions
  std::exception_ptr error_ SNETSAC_GUARDED_BY(out_mu_);

  bool done_locked() const {
    return open_sessions_.load(std::memory_order_acquire) == 0 &&
           live_.load(std::memory_order_acquire) == 0;
  }
};

}  // namespace snet

#endif
