#ifndef SNETSAC_SNET_ENTITY_HPP
#define SNETSAC_SNET_ENTITY_HPP

/// \file entity.hpp
/// Runtime entities: every instantiated box, filter, dispatcher, merger
/// and synchrocell is an Entity with a single MPSC inbox, scheduled onto a
/// fixed worker pool in bounded quanta (actor model; Core Guidelines CP.4,
/// CP.41 — the paper's Fig. 2 network legitimately unfolds into hundreds
/// of solveOneLevel instances, which must not become hundreds of OS
/// threads).
///
/// The base class centralises the bookkeeping every entity needs:
///  * the idle/queued/running/stalled state machine that guarantees an
///    entity is run by at most one worker at a time,
///  * live-record accounting for network quiescence detection,
///  * deterministic-scope accounting (a consumed record with k emissions
///    contributes k-1 to every det group it belongs to), and
///  * the credit/backpressure protocol: a send into a full downstream
///    inbox marks the producer *stalled* — it stops consuming at the next
///    message boundary, parks without occupying a worker, and is
///    re-queued into the scheduler when the consumer drains the inbox
///    below the release watermark. A pool thread is never blocked; the
///    suspension is a state transition, not a wait,
///  * batched emission: send()/transfer() stage messages in per-target
///    buffers and the matching live/det increments and consume decrements
///    in per-key delta accumulators; flush_all() applies the increments,
///    pushes each buffer with one bounded push_all per (target, flush),
///    and applies the decrements — one inbox lock and one bookkeeping
///    adjustment per batch instead of one per record. Flushes happen at a
///    bounded threshold and at every quantum exit, *before* a stall parks
///    the entity, so order and accounting survive suspensions, and
///  * linear-segment fusion: an *inline stage* (a box or filter whose only
///    producer is its left neighbour in a fused serial segment, see
///    Topology::instantiate and serial_segments) has no live inbox. A send
///    into it runs its on_record inside the producer's quantum, and its
///    own emissions go to the segment head's buffers and accumulators, so
///    the record between two stages costs a call, not an entity hop, and
///  * routing at the producer: a *router* (a non-deterministic parallel,
///    split or star stage, see Router) only picks where a record goes
///    next. Nothing is ever delivered to it: send()/transfer() and the
///    client's inject resolve it in the producer's own thread and stage
///    the record straight for the inbox-backed entity it picks.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/annotations.hpp"
#include "runtime/mpsc_queue.hpp"
#include "sacpp/small_vector.hpp"
#include "snet/stream.hpp"

namespace snet {

class Network;
class Router;
class SessionState;

class Entity {
 public:
  Entity(Network& net, std::string name);
  virtual ~Entity() = default;

  Entity(const Entity&) = delete;
  Entity& operator=(const Entity&) = delete;

  const std::string& name() const { return name_; }

  /// Producer side: enqueue a message and make sure the entity gets
  /// scheduled. Thread-safe. Returns true when the inbox is at/over its
  /// bound after the push — the producing entity should suspend (the
  /// push itself always succeeds: a producer mid-record finishes its
  /// emissions, so overshoot stays bounded by one record's fan-out — for
  /// a segment head, the fan-out of one head record through its inline
  /// stages).
  bool deliver(Message m);

  /// The routers one resolution passed through, in order (see Router).
  using RouteTrail = sac::SmallVector<Router*, 8>;

  /// Bounded enqueue for client injection: refuses — leaving \p m intact
  /// — when the inbox is at capacity. On success the entity is scheduled
  /// as with deliver(), and the routers of \p via — the ones the record
  /// was resolved through on its way here — report and count it.
  bool try_deliver(Message& m, const RouteTrail& via);

  /// Batched deliver: traces and enqueues every message under a single
  /// inbox lock (push_all), then runs the scheduling handshake once.
  /// \p msgs is left empty. Thread-safe, same contract as deliver().
  bool deliver_all(std::vector<Message>& msgs);

  /// Scheduler side: process up to \p max_messages; must only be invoked
  /// by the scheduler after the entity transitioned to queued state.
  void run_quantum(unsigned max_messages);

  /// Credit protocol: registers \p producer to be re-queued once this
  /// entity's inbox drains below the release watermark. Returns false —
  /// without registering — when credit is already available.
  bool await_inbox_credit(Entity* producer);

  /// Re-queues an entity parked by the stall protocol; no-op unless the
  /// entity is currently stalled. Called by credit releasers (a drained
  /// inbox, a popped output buffer).
  void resume_from_stall();

  /// Delivers a control nudge: the entity's next quantum runs on_poke even
  /// if no record arrives. Used by the input dispatcher's wakeup protocol,
  /// det-group completion and synchrocell eviction of dead sessions.
  /// Thread-safe.
  void poke() { deliver(Message::poke()); }

  std::uint64_t records_in() const { return in_count_.load(std::memory_order_relaxed); }
  std::uint64_t records_out() const { return out_count_.load(std::memory_order_relaxed); }

  /// Makes this entity an inline stage of \p head's segment: every record
  /// sent to it runs through on_record inside the quantum of \p head (the
  /// producer is \p head itself or an earlier inline stage of the same
  /// segment — no other entity may target an inline stage). Instantiation
  /// only: both entities must not be reachable by any producer yet, and
  /// the caller holds the network's entity-registry lock, under which
  /// stats() reads fused().
  void fuse_into(Entity& head);
  /// True for an inline stage (stats and tests; see fuse_into).
  bool fused() const { return head_ != nullptr; }

  /// Lost-wakeup query for the invariant layer: true when a producer is
  /// still registered for this inbox's credit although the queue has
  /// drained to (or below) the release watermark — the wakeup its
  /// registration guaranteed will never come. Valid at safe points only
  /// (between quanta): mid-drain the release simply has not fired yet.
  bool inbox_lost_wakeup_suspected() const {
    return inbox_.lost_wakeup_suspected();
  }

 protected:
  /// The *protocol* capability serialising all worker-only state below:
  /// the idle/queued/running CAS handshake guarantees at most one worker
  /// runs this entity at a time, and run_quantum's RoleGuard is where the
  /// guarantee becomes a capability the analysis can track. Virtual
  /// override bodies (on_record and friends) re-assert it at entry —
  /// clang does not propagate attributes through virtual dispatch — which
  /// doubles as a dynamic single-runner check in SNETSAC_CHECKED builds.
  snetsac::runtime::ThreadRole quantum_role_;

  /// For routers (see Router): marks the entity as resolved by its
  /// producers, never delivered to.
  struct RouterTag {};
  Entity(Network& net, std::string name, RouterTag);

  /// Consumes one record. Emissions go through send()/transfer().
  /// Implementations open with `quantum_role_.assert_held()`. Entities
  /// that receive no records (routers, the input dispatcher) keep this
  /// default, which throws.
  virtual void on_record(Record r);
  /// Handles a control poke (det group completion, stall resumption...).
  virtual void on_poke() {}
  /// Runs at the end of every quantum, before the emission buffers are
  /// flushed and before a requested stall parks the entity. Entities that
  /// stage work across the records of a quantum (the output demux's
  /// session batches) complete it here.
  virtual void on_quantum_end() {}

  /// Emits a derived record downstream: counted as an emission of the
  /// record currently being consumed (det accounting, live accounting).
  /// A congested target requests a stall of this entity — of the segment
  /// head when this is an inline stage. A router \p target is resolved
  /// first (see resolve). An inline \p target consumes \p r right here
  /// (see run_inline); the record is never counted live.
  void send(Entity* target, Record r) SNETSAC_REQUIRES(quantum_role_);

  /// Moves a record the entity had previously buffered (and manually
  /// accounted for) downstream without counting it as a fresh emission.
  /// A congested target requests a stall of this entity. A router
  /// \p target is resolved first; when routing fails, the dropped record
  /// retires what it held (its live count and det stamps). Never targets
  /// an inline stage (only det collectors and the input dispatcher
  /// transfer).
  void transfer(Entity* target, Record r) SNETSAC_REQUIRES(quantum_role_);

  /// Applies pending increments, pushes every buffer (one push_all per
  /// target; a congested bounded target requests a stall), then applies
  /// pending decrements and clears the accumulators. run_quantum calls it
  /// at every quantum exit; an entity may call it earlier when its
  /// emissions must be visible downstream before it publishes something
  /// else (the input dispatcher, before it delists a session).
  void flush_all() SNETSAC_REQUIRES(quantum_role_);

  /// Attempts to register this entity with a credit source; it must
  /// return false when credit is (again) available, in which case the
  /// entity is re-queued immediately instead of parking.
  using StallGate = std::function<bool(Entity*)>;

  /// Asks the runtime to suspend this entity at the end of the message
  /// currently being processed (honoured by run_quantum; unprocessed
  /// batch remainder and inbox survive the suspension).
  void request_stall(StallGate gate) SNETSAC_REQUIRES(quantum_role_) {
    stall_gate_ = std::move(gate);
  }
  /// True once the current quantum has a pending suspension — long
  /// release loops (det collectors) should yield when they see this.
  bool stall_requested() const SNETSAC_REQUIRES(quantum_role_) {
    return static_cast<bool>(stall_gate_);
  }

  Network& net_;

 private:
  /// The deliver()-side scheduling handshake, shared by deliver and
  /// try_deliver once the message is in the inbox.
  void schedule_after_push();
  /// Fires credit waiters the last drain made runnable.
  void release_inbox_credit() SNETSAC_REQUIRES(quantum_role_);
  /// The body of send() for a real (inbox-backed) target, run on the
  /// entity that owns the quantum: emission accounting, then the buffered
  /// delivery (flush_all requests a stall when the target is congested).
  void emit_downstream(Entity* target, Record r) SNETSAC_REQUIRES(quantum_role_);
  /// Delivers \p r to the inline stage \p stage: reports it to the trace
  /// under the stage's name, then runs the stage's on_record under its own
  /// quantum role, inside this quantum. A throw fails the network exactly
  /// as it would have in the stage's own quantum.
  void run_inline(Entity& stage, Record r) SNETSAC_REQUIRES(quantum_role_);
  /// Folds the records in/out counted since the last publish into the
  /// atomic counters stats() reads (flush_all does it for the entity's
  /// own, run_quantum for its inline stages).
  void publish_counters() SNETSAC_REQUIRES(quantum_role_);
  /// Follows routers from \p target for \p r, in this thread, to the
  /// inbox-backed entity the record goes to; each router passed reports
  /// and counts it before the record is staged. A router that throws fails
  /// the network with its exception and yields null: the record is
  /// dropped.
  Entity* resolve(Entity* target, const Record& r) SNETSAC_REQUIRES(quantum_role_);

  // --- batched emission (see file comment) ------------------------------
  // All of this is only touched by the single worker currently running
  // the entity.

  /// Per-target staging buffer; flush order is first-use order, and
  /// within a target the buffer preserves emission order, so per-session
  /// FIFO and det order are exactly the emission order.
  struct EmitBuffer {
    Entity* target;
    std::vector<Message> msgs;
  };
  /// Coalesced det-group adjustments for one flush: `add` counts
  /// emissions (applied before the pushes), `sub` counts consumed records
  /// (applied after), so a group's count never transiently drops to zero
  /// while descendants are in flight (+1 on emit before visibility, -1
  /// after consume, batch by batch).
  struct DetDelta {
    DetScope* scope;
    std::uint64_t seq;
    std::int64_t add = 0;
    std::int64_t sub = 0;
  };
  /// Coalesced live-record accounting, same add/sub split per session.
  struct LiveDelta {
    SessionState* session;
    std::int64_t add = 0;
    std::int64_t sub = 0;
  };

  /// Stages a message for \p target, flushing when the buffered total
  /// reaches the threshold.
  void buffer_message(Entity* target, Message m) SNETSAC_REQUIRES(quantum_role_);
  /// Accumulates the emission-side accounting of \p r (det +1 per stamp,
  /// live +1 for its session).
  void note_emit_accounting(const Record& r) SNETSAC_REQUIRES(quantum_role_);
  void det_delta_add(DetScope* scope, std::uint64_t seq)
      SNETSAC_REQUIRES(quantum_role_);
  void det_delta_sub(DetScope* scope, std::uint64_t seq)
      SNETSAC_REQUIRES(quantum_role_);
  void live_delta_add(SessionState* session) SNETSAC_REQUIRES(quantum_role_);
  void live_delta_sub(SessionState* session) SNETSAC_REQUIRES(quantum_role_);

  std::string name_;
  /// Fixed in the constructor and read-only afterwards.
  bool routes_ = false;
  snetsac::runtime::MpscQueue<Message> inbox_;
  /// Quantum drain buffer (reused across quanta; only the worker currently
  /// running the entity touches it — guarded by the quantum role).
  /// batch_pos_ marks the resume point after a stall — messages past it
  /// are still owned by the entity.
  std::vector<Message> batch_ SNETSAC_GUARDED_BY(quantum_role_);
  std::size_t batch_pos_ SNETSAC_GUARDED_BY(quantum_role_) = 0;
  /// Scratch for credit firing.
  std::vector<std::function<void()>> released_ SNETSAC_GUARDED_BY(quantum_role_);

  /// Batched-emission state (worker-only, like batch_). The delta vectors
  /// are linear-scanned: a quantum touches a handful of (scope, seq) and
  /// session keys, and the vectors are reused so steady state allocates
  /// nothing. flush_threshold_ is fixed in the constructor and read-only
  /// afterwards, so it stays outside the role.
  std::size_t flush_threshold_ = 256;
  std::vector<EmitBuffer> emit_bufs_ SNETSAC_GUARDED_BY(quantum_role_);
  std::size_t emit_pending_ SNETSAC_GUARDED_BY(quantum_role_) = 0;
  /// Index of the most recent emission target.
  std::size_t last_buf_ SNETSAC_GUARDED_BY(quantum_role_) = 0;
  std::vector<DetDelta> det_deltas_ SNETSAC_GUARDED_BY(quantum_role_);
  std::vector<LiveDelta> live_deltas_ SNETSAC_GUARDED_BY(quantum_role_);
  /// Reused stamp snapshot of the record being consumed — no per-record
  /// heap copy (skipped entirely for unstamped records).
  std::vector<DetStamp> stamp_scratch_ SNETSAC_GUARDED_BY(quantum_role_);

  /// Set while a quantum is processing; honoured at the next message
  /// boundary. Only touched by the worker currently running the entity.
  StallGate stall_gate_ SNETSAC_GUARDED_BY(quantum_role_);
  /// Set by resume_from_stall: the next quantum starts with an on_poke so
  /// entities with internal backlogs (det collectors) resume draining
  /// even when no new message arrives.
  std::atomic<bool> resume_poke_{false};

  enum State : int {
    kIdle = 0,
    kQueued = 1,
    kRunning = 2,
    kRunningPending = 3,
    kStalled = 4,  // parked on downstream credit; deliver() must not queue
  };
  std::atomic<int> state_{kIdle};

  /// Linear-segment fusion, fixed at instantiation and read-only once the
  /// entities are reachable (like flush_threshold_): the head whose quantum runs
  /// this inline stage (null for an inbox-backed entity), and a head's
  /// inline stages, whose counters it publishes with its own.
  Entity* head_ = nullptr;
  std::vector<Entity*> fused_;

  /// Records consumed and emitted since the last counter publish: plain
  /// counters folded into in_count_/out_count_ once per quantum (of the
  /// segment head, for an inline stage) — stats stay atomic reads without
  /// a per-record RMW.
  std::uint64_t quantum_in_ SNETSAC_GUARDED_BY(quantum_role_) = 0;
  std::uint64_t quantum_out_ SNETSAC_GUARDED_BY(quantum_role_) = 0;

  /// A router has no quantum of its own: every producer that resolves it
  /// bumps its counters directly (Router::note).
  std::atomic<std::uint64_t> in_count_{0};
  std::atomic<std::uint64_t> out_count_{0};

  friend class Router;
};

/// A non-deterministic routing combinator instance: a parallel's
/// best-match dispatcher, a split, a star stage. The branch or replica a
/// record enters is a function of its shape and its tag values, so a
/// router is a decision, not a stage: it has no inbox use and never runs
/// a quantum. Every producer that targets it — Entity::send/transfer, the
/// client's inject bypass and the input dispatcher's forward — calls
/// pick() in its own thread, following the chain (a star stage's exit
/// test, its replica's entry, a split, the replica's head) to an
/// inbox-backed entity, and stages the record for that entity through
/// its own emit buffers and credit path. Routers keep their entity, name,
/// stats row and trace reports: each router a record passes reports it
/// to Options::trace and counts it in and out.
class Router : public Entity {
 public:
  /// The entity \p r goes to next, possibly another router. Thread-safe:
  /// all producers call it at once. Shared decision state is read without
  /// a lock (router.hpp); only a memo miss or a replica instantiation
  /// takes one. Throws NetTypeError when \p r cannot be routed.
  virtual Entity* pick(const Record& r) = 0;

  /// Follows pick() from \p target while it names a router, appending
  /// each router to \p trail before asking it (so a router that throws is
  /// its last entry), and reports nothing. Returns the inbox-backed
  /// entity reached.
  static Entity* walk(Entity* target, const Record& r, RouteTrail& trail);
  /// Reports \p r to the trace under every router of \p trail, and counts
  /// it in and out of each; with \p failed, the last one threw and counts
  /// it in only.
  static void note(const RouteTrail& trail, const Record& r, bool failed);
  /// Takes back the counts of a successful note() whose record was then
  /// refused.
  static void unnote(const RouteTrail& trail);

 protected:
  Router(Network& net, std::string name) : Entity(net, std::move(name), RouterTag{}) {}
};

}  // namespace snet

#endif
