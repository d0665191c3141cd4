#ifndef SNETSAC_SNET_SESSION_HPP
#define SNETSAC_SNET_SESSION_HPP

/// \file session.hpp
/// The port/session client surface of a running Network, and the
/// SessionTable behind it.
///
/// Clients talk to a network through *ports*. `Network::input()` /
/// `Network::output()` are the ports of the default session;
/// `Network::open_session()` opens an independent session over the *same*
/// instantiated topology — records are session-stamped on entry (hidden
/// metadata, like det stamps, so it never perturbs type matching or
/// routing) and demultiplexed back to the owning session's `OutputPort`.
///
/// Ports are where the end-to-end resource bound surfaces (the
/// extra-functional stream semantics of S+Net), *per tenant*:
///
///  * every session owns an **output credit account** of
///    `output_capacity` records (`SessionOptions::output_capacity`
///    overrides the network default): `InputPort::inject` waits for
///    session credit when the session's un-consumed output (its
///    OutputPort buffer) reaches the bound, and the client's
///    `OutputPort::next` pops replenish it. A slow reader therefore
///    throttles only *itself* — the shared output entity buffers every
///    record it receives and never head-of-line blocks other sessions on
///    its behalf. The records already in flight when the gate closed are
///    buffered too, so a buffer may exceed the bound by them;
///  * every session owns a bounded **input staging queue**
///    (max(`Options::inbox_capacity`, `quantum` × weight) records, or
///    unbounded with the inbox): a hot tenant blocks on its own queue
///    while the network's input dispatcher forwards staged records into
///    the shared entry by weighted deficit-round-robin
///    (`SessionOptions::weight`), so injection rate cannot monopolise the
///    pipeline;
///  * `try_inject` reports "full" without blocking when either the staging
///    queue or the output credit account is exhausted.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include <memory>
#include <unordered_map>

#include "runtime/annotations.hpp"
#include "runtime/executor.hpp"
#include "runtime/mpsc_queue.hpp"
#include "snet/record.hpp"

namespace snet {

class Entity;
class Interior;
class Network;
class SessionState;
class SessionTable;
struct NetworkStats;

namespace detail {
class InputDispatchEntity;
}  // namespace detail

/// Per-session knobs, fixed at `Network::open_session` time.
struct SessionOptions {
  /// Deficit-round-robin weight of this session at the input dispatcher:
  /// under contention a session with weight w receives w shares of entry
  /// bandwidth per round. 0 is promoted to 1.
  unsigned weight = 1;
  /// Overrides `Options::output_capacity` for this session's output
  /// credit account (records). 0 = inherit the network default.
  std::size_t output_capacity = 0;
};

/// Bounded input side of a session. Thread-safe: multiple producer
/// threads may inject into the same port concurrently.
class InputPort {
 public:
  InputPort(const InputPort&) = delete;
  InputPort& operator=(const InputPort&) = delete;

  /// Feeds a record into the session. Blocks while the session's staging
  /// queue is full or its output credit account is exhausted; on an
  /// executor worker (a box injecting into a nested network) it helps
  /// execute tasks instead of blocking the pool slot. Throws
  /// std::logic_error after close(); rethrows the network's first entity
  /// error if the network fails while the inject is blocked, and the
  /// session's own error if the session was failed fast (det/sync cap).
  void inject(Record r);

  /// Non-blocking inject: returns false — leaving \p r intact — when the
  /// session's staging queue is at capacity or its output credit account
  /// is exhausted, so the client can apply its own policy (drop, retry,
  /// shed load) instead of stalling.
  bool try_inject(Record& r);

  /// Feeds every record in order, blocking as needed — the same as one
  /// inject() per record.
  void inject_all(std::vector<Record> records);

  /// Declares this session's input finished. Idempotent. The session's
  /// OutputPort completes once the session's in-flight records drain.
  void close();

  bool closed() const;

 private:
  friend class SessionState;
  InputPort(SessionTable& table, SessionState& state) : table_(&table), state_(&state) {}

  SessionTable* table_;
  SessionState* state_;
};

/// Output side of a session: a stream of the session's own results,
/// consumable by blocking pops (`next`), bulk drain (`collect`), range
/// iteration, or a push callback (`on_output`).
class OutputPort {
 public:
  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;

  /// Blocks for the session's next output record; std::nullopt once the
  /// session is closed and drained. Each pop releases output credit back
  /// to the session's account. Rethrows the first entity error (or this
  /// session's own fail-fast error).
  std::optional<Record> next();

  /// Closes the session's input (if still open) and drains every
  /// remaining output of this session.
  std::vector<Record> collect();

  /// Streaming batch pop: blocks like next() for one record, then appends
  /// it plus everything else the session's buffer already holds to \p out
  /// — one lock and one whole-span credit release per call instead of one
  /// per record. Returns the number appended; 0 once the session is
  /// closed and drained. The streaming analogue of collect()'s drain loop.
  std::size_t next_span(std::vector<Record>& out);

  /// Push mode: \p callback is invoked for every output record of this
  /// session *from a worker thread* (must be thread-compatible with the
  /// client's world; calls are serialised and in session order). Records
  /// already buffered are flushed to the callback first; afterwards the
  /// port never buffers, so the output credit account is disabled for
  /// this session — the callback itself is the consumer. Install-once: a
  /// second call throws std::logic_error.
  void on_output(std::function<void(Record)> callback);

  struct sentinel {};

  /// Input iterator over the session's outputs; ++ blocks like next().
  class iterator {
   public:
    using value_type = Record;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    Record& operator*() { return *current_; }
    Record* operator->() { return &*current_; }
    iterator& operator++() {
      current_ = port_->next();
      return *this;
    }
    void operator++(int) { ++*this; }
    bool operator==(sentinel) const { return !current_.has_value(); }

   private:
    friend class OutputPort;
    explicit iterator(OutputPort* port) : port_(port), current_(port->next()) {}

    OutputPort* port_;
    std::optional<Record> current_;
  };

  /// `for (snet::Record& r : net.output()) ...` — terminates when the
  /// session closes and drains. begin() already blocks for the first
  /// record.
  iterator begin() { return iterator(this); }
  sentinel end() const { return {}; }

 private:
  friend class SessionState;
  OutputPort(SessionTable& table, SessionState& state)
      : table_(&table), state_(&state) {}

  SessionTable* table_;
  SessionState* state_;
};

/// Internal per-session runtime state, owned by the SessionTable for its
/// whole lifetime (records carry a raw pointer to it as their session
/// stamp).
/// Clients only ever see the facade ports and the Session handle.
class SessionState {
 public:
  SessionState(Network& net, std::uint32_t id, SessionOptions opts);

  SessionState(const SessionState&) = delete;
  SessionState& operator=(const SessionState&) = delete;

  std::uint32_t id() const { return id_; }
  unsigned weight() const { return weight_; }
  InputPort& input() { return in_; }
  OutputPort& output() { return out_; }

  /// Failed fast (det/sync cap FailFast policy): the session's ports
  /// rethrow its error; in-flight records are drained and dropped.
  bool errored() const { return errored_.load(std::memory_order_acquire); }
  /// Handle released while records were in flight: outputs are dropped.
  bool abandoned() const { return abandoned_.load(std::memory_order_acquire); }
  /// Interior (det/sync) buffering over the per-session cap under the
  /// Spill policy: the input dispatcher pauses this session until the
  /// region drains below the watermark.
  bool throttled() const { return throttled_.load(std::memory_order_acquire); }

  /// Static+dynamic hand-off for the cross-object guard: SessionTable
  /// locks its own out_mu_ member, but this session's guarded fields are annotated
  /// against the *reference* below — asserting tells clang (and, checked,
  /// verifies) they name the same capability.
  void assert_output_locked() const SNETSAC_ASSERT_CAPABILITY(out_mu_) {
    out_mu_.assert_held();
  }
  /// Same hand-off for SessionTable::dispatch_mu_ (guards listed_).
  void assert_dispatch_locked() const SNETSAC_ASSERT_CAPABILITY(dispatch_mu_) {
    dispatch_mu_.assert_held();
  }

 private:
  friend class SessionTable;
  friend class Interior;
  friend class InputPort;
  friend class OutputPort;
  friend class detail::InputDispatchEntity;

  /// Invokes the installed on_output sink *outside* out_mu_. Safe without
  /// the capability because a sink is install-once (on_output rejects
  /// re-installation), the caller observed the install under the lock, and
  /// only the single worker running the output entity reaches here —
  /// exactly the protocol argument the analysis cannot follow, so the
  /// access is annotated away instead of laundered through a cast.
  void deliver_to_sink(Record r) SNETSAC_NO_TSA { sink_(std::move(r)); }

  /// Aliases of SessionTable::out_mu_ / dispatch_mu_ — the capabilities
  /// the guarded fields below are annotated against (a session has no
  /// locks of its own; its state lives under the table's).
  snetsac::runtime::Mutex& out_mu_;
  snetsac::runtime::Mutex& dispatch_mu_;

  const std::uint32_t id_;
  const unsigned weight_;
  /// Effective output credit account bound (records the client has not
  /// consumed yet: the OutputPort buffer). 0 = unbounded.
  const std::size_t out_cap_;

  /// Records of this session currently inside the network, staging queue
  /// included; buffered output is not live (quiescence is per session:
  /// closed + live == 0 completes the OutputPort once its buffer is
  /// popped).
  std::atomic<std::int64_t> live_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> abandoned_{false};
  std::atomic<bool> errored_{false};
  std::atomic<bool> throttled_{false};

  // --- input side -------------------------------------------------------
  /// Per-session staging queue (bounded to one DRR turn or the inbox bound,
  /// whichever is larger): the only queue this session's inject can block
  /// on, so a full one throttles exactly this tenant. Drained by the input
  /// dispatcher under DRR.
  snetsac::runtime::MpscQueue<Record> staging_;
  /// On the dispatcher's radar.
  bool listed_ SNETSAC_GUARDED_BY(dispatch_mu_) = false;
  /// DRR deficit left in the session's current turn; input-dispatcher
  /// worker only. A turn grants deficit only when it starts at zero.
  std::int64_t deficit_ = 0;

  /// Records held inside det collectors / synchrocells on behalf of this
  /// session (the per-session interior account, Options::det_capacity);
  /// Interior's alone.
  std::atomic<std::int64_t> interior_{0};

  // --- output credit account -------------------------------------------
  /// buffer_.size(): the un-consumed output charged against out_cap_.
  /// Mutated under out_mu_; atomic so inject can peek without
  /// the lock.
  std::atomic<std::int64_t> out_account_{0};

  // --- per-session QoS counters (relaxed; surfaced via NetworkStats) ----
  std::atomic<std::uint64_t> credit_waits_{0};  ///< injects that blocked on output credit
  std::atomic<std::uint64_t> output_stalls_{0}; ///< records buffered at or over out_cap_
  std::atomic<std::uint64_t> forwarded_{0};     ///< records the DRR dispatcher forwarded
  std::atomic<std::uint64_t> drr_turns_{0};     ///< DRR turns this session received
  std::atomic<std::uint64_t> spilled_{0};       ///< det/sync records spilled over the cap

  // --- guarded by SessionTable::out_mu_ (via the out_mu_ alias) --------
  /// Demuxed outputs awaiting the client.
  std::deque<Record> buffer_ SNETSAC_GUARDED_BY(out_mu_);
  std::uint64_t produced_ SNETSAC_GUARDED_BY(out_mu_) = 0;
  /// on_output callback, if any.
  std::function<void(Record)> sink_ SNETSAC_GUARDED_BY(out_mu_);
  /// Fail-fast error, if any.
  std::exception_ptr error_ SNETSAC_GUARDED_BY(out_mu_);

  InputPort in_;
  OutputPort out_;
};

/// A client session handle: an independent logical stream pair over a
/// shared Network. Move-only; destroying the handle *releases* the
/// session — input closed, unconsumed output discarded, state reclaimed
/// once in-flight records drain — so a forgotten session can neither
/// wedge network quiescence nor hold output credit hostage.
/// Port references obtained from the handle die with it; the handle must
/// not outlive the Network.
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept
      : table_(std::exchange(other.table_, nullptr)),
        state_(std::exchange(other.state_, nullptr)) {}
  Session& operator=(Session&& other) noexcept {
    if (this != &other) {
      release();
      table_ = std::exchange(other.table_, nullptr);
      state_ = std::exchange(other.state_, nullptr);
    }
    return *this;
  }
  ~Session() { release(); }

  /// False for a default-constructed or moved-from handle. Calling any
  /// accessor below on such an empty handle is undefined — check first.
  explicit operator bool() const { return state_ != nullptr; }
  std::uint32_t id() const { return state_->id(); }
  unsigned weight() const { return state_->weight(); }

  InputPort& input() { return state_->input(); }
  OutputPort& output() { return state_->output(); }

  /// Closes the session's input stream (== input().close()); the handle
  /// stays valid for draining the output.
  void close() { state_->input().close(); }

 private:
  friend class SessionTable;
  Session(SessionTable& table, SessionState& state) : table_(&table), state_(&state) {}

  void release();  // defined in session.cpp (needs SessionTable)

  SessionTable* table_ = nullptr;
  SessionState* state_ = nullptr;
};

/// A counter with its high-water mark (records live in a network, records
/// held in its interior). add and sub return the new value.
struct PeakGauge {
  std::atomic<std::int64_t> now{0};
  std::atomic<std::int64_t> peak{0};

  std::int64_t add(std::int64_t n) {
    const std::int64_t v = now.fetch_add(n, std::memory_order_acq_rel) + n;
    std::int64_t p = peak.load(std::memory_order_relaxed);
    while (v > p && !peak.compare_exchange_weak(p, v, std::memory_order_relaxed)) {
    }
    return v;
  }
  std::int64_t sub(std::int64_t n) {
    return now.fetch_sub(n, std::memory_order_acq_rel) - n;
  }
};

/// The sessions of one Network and everything between the client and the
/// entity graph: the port protocol (inject with its output-credit gate and
/// staging queue, pops, release), the DRR listing the input dispatcher
/// drains, output demux, live-record counts with quiescence, and failure.
/// Live counts sit here because the drain to zero wakes out_cv_.
/// Lock order (ranks, checked builds verify it): dispatch_mu_ (10) before
/// out_mu_ (20) before in_mu_ (30).
class SessionTable {
 public:
  SessionTable(Network& net, snetsac::runtime::ExecutorIface& exec);

  /// Connects the table to the graph: injects enter \p entry, and
  /// \p dispatch is the DRR input dispatcher that drains staging.
  void attach(Entity* entry, Entity* dispatch) {
    entry_ = entry;
    dispatch_ = dispatch;
  }

  /// A new session with a fresh id, as a client handle.
  Session open(SessionOptions opts);
  /// The lazily created default session (id 0); unstamped records belong
  /// to it.
  SessionState* default_session();

  // ------- ports: the logic behind InputPort, OutputPort and Session ----
  /// The one admission routine behind inject, try_inject and inject_all:
  /// stamps \p r with the session and hands it to the entry (or the
  /// session's staging queue). Where the output credit account or the
  /// staging queue is full it waits when \p block, else returns false
  /// with \p r handed back untouched.
  bool inject(SessionState& s, Record& r, bool block);
  void close(SessionState& s);
  std::optional<Record> next(SessionState& s);
  /// Moves the whole output buffer into \p out under one lock and one
  /// credit release; returns the number appended. Never blocks.
  std::size_t drain(SessionState& s, std::vector<Record>& out);
  void on_output(SessionState& s, std::function<void(Record)> callback);
  /// The handle's destruction: closes the input, discards unconsumed
  /// output, and reclaims the state once drained (else it is marked
  /// abandoned and its outputs are dropped). \p s is dead afterwards.
  void release(SessionState& s);

  // ------- input dispatch (InputDispatchEntity, Interior) ---------------
  /// Lists \p s with the input dispatcher (idempotent) and pokes the
  /// dispatcher when the listing is new, or always with \p nudge: the
  /// un-throttle, release and fail paths, where the session may already
  /// sit parked on the dispatcher's ring.
  void list(SessionState* s, bool nudge);
  /// Moves newly listed sessions (pending input) into \p out.
  void take_ready(std::deque<SessionState*>& out);
  /// Dispatcher-side delist after observing an empty staging queue.
  /// Returns false when a concurrent inject re-listed the session into the
  /// caller's hands — the caller keeps it on its active ring.
  bool delist(SessionState* s);

  // ------- records in flight (entities) ---------------------------------
  void live_add(SessionState* session, std::int64_t n = 1);
  void live_sub(SessionState* session, std::int64_t n = 1);
  /// Delivers a quantum's staged output under one lock and one wakeup:
  /// each record goes to its session's sink or buffer (charging the output
  /// account), or is dropped when its session was released or failed.
  /// Never refuses; \p records is left empty.
  void push_output_batch(std::vector<Record>& records);

  // ------- failure ------------------------------------------------------
  /// FailFast policy: errors exactly this session — its ports rethrow
  /// \p err, its staged and buffered records are dropped, siblings
  /// unaffected. A null \p s (an unstamped record) fails the network.
  void fail_session(SessionState* s, std::exception_ptr err);
  /// Fails the whole network with its first error.
  void fail(std::exception_ptr err) { fail_session(nullptr, std::move(err)); }

  /// Blocks until every session is closed and no record is in flight;
  /// rethrows the network's first error.
  void wait();
  /// Calls \p f on every session under out_mu_.
  template <class F>
  void for_each(F&& f) const {
    const snetsac::runtime::MutexLock lock(out_mu_);
    for (const auto& entry : sessions_) {
      f(*entry.second);
    }
  }
  /// Injected/produced totals, sessions opened, peak live and one
  /// SessionStats row per live session.
  void stats(NetworkStats& out) const;
  /// Per session: output account == buffered output, non-negative live
  /// and account counters, no lost wakeup on staging credit; network-wide:
  /// non-negative live and open counts, and with \p expect_quiescent that
  /// both are exactly zero. Safe points only.
  void check(bool expect_quiescent) const;

 private:
  friend class SessionState;  // aliases out_mu_ and dispatch_mu_

  /// Adds a session under \p id; for id 0 (the default session), returns
  /// the one a racing thread added first instead.
  SessionState* add(std::uint32_t id, SessionOptions opts);
  /// Pops the front of \p s's buffer and releases output credit.
  /// \p crossed reports whether the pop crossed the credit bound — the
  /// caller notifies *after* dropping out_mu_.
  Record pop_output_locked(SessionState& s, bool& crossed) SNETSAC_REQUIRES(out_mu_);
  /// Empties \p s's output buffer into \p out (discards it when null) and
  /// retires its credit charges; returns the number of records.
  std::size_t take_output_locked(SessionState& s, std::vector<Record>* out)
      SNETSAC_REQUIRES(out_mu_);
  /// Wakes every inject blocked on staging credit.
  void bump_credit_epoch();
  /// The output credit gate: true once \p s's account has room; at the
  /// bound, false when not \p block, else a wait that rethrows failures.
  bool await_output_account(SessionState& s, bool block);
  /// Waits until \p s's staging queue releases credit. On failure it
  /// returns the live charge of the caller's record, then rethrows.
  void await_staging_credit(SessionState& s);
  /// Rethrows the network's first error, else \p s's fail-fast error.
  void rethrow_failure(SessionState& s) const;
  bool done_locked() const {
    return open_sessions_.load(std::memory_order_acquire) == 0 &&
           live_.now.load(std::memory_order_acquire) == 0;
  }

  Network& net_;
  /// Every quantum and cooperative wait goes through it.
  snetsac::runtime::ExecutorIface& exec_;
  Entity* entry_ = nullptr;
  Entity* dispatch_ = nullptr;

  /// Records inside the network (staged, in inboxes or entities) and the
  /// high-water mark; buffered output is not counted.
  PeakGauge live_;
  std::atomic<std::uint64_t> injected_{0};
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

  /// Sessions newly listed for input dispatch (handed to the DRR
  /// dispatcher by take_ready).
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

  /// Input-credit handshake for blocking inject on a full staging queue.
  mutable snetsac::runtime::Mutex in_mu_;
  snetsac::runtime::CondVar in_cv_;
  std::uint64_t in_credit_epoch_ SNETSAC_GUARDED_BY(in_mu_) = 0;
};

}  // namespace snet

#endif
