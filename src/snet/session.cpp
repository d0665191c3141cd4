#include "snet/session.hpp"

#include <algorithm>

#include "runtime/invariants.hpp"
#include "snet/network.hpp"

namespace snet {

using snetsac::runtime::MutexLock;

// Ports are thin facades: the logic (and all locking) lives in the
// SessionTable, whose mutexes every session's guarded state aliases.

SessionState::SessionState(Network& net, std::uint32_t id, SessionOptions opts)
    : out_mu_(net.sessions().out_mu_),
      dispatch_mu_(net.sessions().dispatch_mu_),
      id_(id),
      weight_(opts.weight == 0 ? 1U : opts.weight),
      out_cap_(opts.output_capacity),
      in_(net.sessions(), *this),
      out_(net.sessions(), *this) {
  // A bounded network bounds the staging queue too: one inbox worth of
  // records, or one whole DRR turn (quantum × weight) if that is larger —
  // a smaller queue would run dry mid-turn and forfeit the rest of the
  // session's weighted share.
  const std::size_t cap = net.inbox_capacity();
  staging_.set_capacity(
      cap == 0 ? 0
               : std::max<std::size_t>(
                     cap, static_cast<std::size_t>(net.drr_grant()) * weight_));
  staging_.set_lock_order(50, "session.staging");
}

void InputPort::inject(Record r) { table_->inject(*state_, r, /*block=*/true); }

bool InputPort::try_inject(Record& r) {
  return table_->inject(*state_, r, /*block=*/false);
}

void InputPort::inject_all(std::vector<Record> records) {
  for (Record& r : records) {
    table_->inject(*state_, r, /*block=*/true);
  }
}

void InputPort::close() { table_->close(*state_); }

bool InputPort::closed() const {
  return state_->closed_.load(std::memory_order_acquire);
}

std::optional<Record> OutputPort::next() { return table_->next(*state_); }

std::vector<Record> OutputPort::collect() {
  if (!state_->input().closed()) {
    table_->close(*state_);
  }
  std::vector<Record> all;
  // Block for the first record of each span via next, then take whatever
  // else the buffer holds in one drain — one lock per produced batch
  // instead of one per record.
  while (auto r = table_->next(*state_)) {
    all.push_back(std::move(*r));
    table_->drain(*state_, all);
  }
  return all;
}

std::size_t OutputPort::next_span(std::vector<Record>& out) {
  auto r = table_->next(*state_);
  if (!r) {
    return 0;
  }
  out.push_back(std::move(*r));
  return 1 + table_->drain(*state_, out);
}

void OutputPort::on_output(std::function<void(Record)> callback) {
  table_->on_output(*state_, std::move(callback));
}

void Session::release() {
  if (state_ != nullptr) {
    table_->release(*state_);
    state_ = nullptr;  // may be reclaimed; the handle must forget it
    table_ = nullptr;
  }
}

// ------------------------------------------------------------ the table

SessionTable::SessionTable(Network& net, snetsac::runtime::ExecutorIface& exec)
    : net_(net), exec_(exec) {
  dispatch_mu_.set_order(10, "network.dispatch_mu");
  out_mu_.set_order(20, "network.out_mu");
  in_mu_.set_order(30, "network.in_mu");
}

SessionState* SessionTable::add(std::uint32_t id, SessionOptions opts) {
  if (opts.output_capacity == 0) {
    opts.output_capacity = net_.options().output_capacity;  // 0 = inherit
  }
  auto state = std::make_unique<SessionState>(net_, id, opts);
  SessionState* const raw = state.get();
  {
    const MutexLock lock(out_mu_);
    if (id == 0) {
      if (SessionState* won = default_session_.load(std::memory_order_relaxed)) {
        return won;  // another thread created the default session first
      }
      default_session_.store(raw, std::memory_order_release);
    }
    sessions_.emplace(id, std::move(state));
    ++sessions_opened_;
  }
  open_sessions_.fetch_add(1, std::memory_order_acq_rel);
  return raw;
}

Session SessionTable::open(SessionOptions opts) {
  return Session(*this,
                 *add(next_session_id_.fetch_add(1, std::memory_order_relaxed), opts));
}

SessionState* SessionTable::default_session() {
  // The default session (id 0) backs input()/output(). Created lazily so
  // a client that only ever opens sessions never owes it a close before
  // wait().
  SessionState* s = default_session_.load(std::memory_order_acquire);
  return s != nullptr ? s : add(0, SessionOptions{});
}

// ------------------------------------------------- input dispatch listing

void SessionTable::list(SessionState* s, bool nudge) {
  bool fresh = false;
  {
    const MutexLock lock(dispatch_mu_);
    s->assert_dispatch_locked();
    if (!s->listed_) {
      s->listed_ = true;
      listed_count_.fetch_add(1, std::memory_order_acq_rel);
      dispatch_ready_.push_back(s);
      fresh = true;
    }
  }
  if (fresh || nudge) {
    dispatch_->poke();
  }
}

void SessionTable::take_ready(std::deque<SessionState*>& out) {
  const MutexLock lock(dispatch_mu_);
  out.insert(out.end(), dispatch_ready_.begin(), dispatch_ready_.end());
  dispatch_ready_.clear();
}

bool SessionTable::delist(SessionState* s) {
  // One critical section: the emptiness check and the listed_ flip must
  // not be separated — (a) a producer's staging push is totally ordered
  // against our empty() by the queue's own mutex, so either we see its
  // record (stay listed) or it sees listed_ == false afterwards and
  // re-lists with a poke: no staged record can strand; and (b) every
  // dispatcher touch of *s happens while s is listed (ring membership ⟺
  // listed_), which is what lets release reclaim an unlisted, drained
  // session without racing a use after free.
  const MutexLock lock(dispatch_mu_);
  s->assert_dispatch_locked();
  if (!s->staging_.empty()) {
    return false;  // the caller keeps the session on its active ring
  }
  s->listed_ = false;
  const std::int64_t listed =
      listed_count_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  SNETSAC_INVARIANT(listed >= 0,
                    "listed-session count went negative (" << listed
                        << ") delisting session " << s->id());
  return true;
}

// ------------------------------------------------------------------ inject

void SessionTable::rethrow_failure(SessionState& s) const {
  std::exception_ptr err;
  {
    const MutexLock lock(out_mu_);
    s.assert_output_locked();
    err = error_ ? error_ : s.error_;
  }
  if (err) {
    std::rethrow_exception(err);
  }
}

bool SessionTable::await_output_account(SessionState& s, bool block) {
  const auto cap = static_cast<std::int64_t>(s.out_cap_);
  if (s.out_account_.load(std::memory_order_acquire) < cap) {
    return true;
  }
  // A sink consumes directly and a released session drops its output:
  // neither charges the account. Checked under the lock to be exact.
  const auto has_credit = [&] {
    out_mu_.assert_held();
    s.assert_output_locked();
    return static_cast<bool>(s.sink_) || s.abandoned() ||
           s.out_account_.load(std::memory_order_relaxed) < cap;
  };
  {
    const MutexLock lock(out_mu_);
    if (has_credit()) {
      return true;
    }
    if (!block) {
      return false;  // "full" for a non-blocking caller
    }
    // At the credit bound the inject waits for the client to pop — only
    // *this* tenant waits, nobody else's stream is touched.
    s.credit_waits_.fetch_add(1, std::memory_order_relaxed);
  }
  // A network failure or this session failing fast wakes the wait too:
  // nobody may ever pop a dead session's output.
  exec_.help_until(out_mu_, out_cv_, [&] {
    return failed_.load(std::memory_order_acquire) || s.errored() || has_credit();
  });
  if (failed_.load(std::memory_order_acquire) || s.errored()) {
    rethrow_failure(s);
  }
  return true;
}

void SessionTable::bump_credit_epoch() {
  {
    const MutexLock lock(in_mu_);
    ++in_credit_epoch_;
  }
  in_cv_.notify_all();
}

void SessionTable::await_staging_credit(SessionState& s) {
  // A network failure — or this session failing fast — wakes the wait
  // too (both bump the epoch): a dead pipeline may never release credit,
  // so a blocked inject must rethrow rather than hang. The record in hand
  // never became visible downstream, so its live charge is returned first.
  if (failed_.load(std::memory_order_acquire) || s.errored()) {
    live_sub(&s, 1);
    rethrow_failure(s);
  }
  std::uint64_t epoch;
  {
    const MutexLock lock(in_mu_);
    epoch = in_credit_epoch_;
  }
  if (s.staging_.wait_for_credit([this] { bump_credit_epoch(); })) {
    exec_.help_until(in_mu_, in_cv_, [&] {
      in_mu_.assert_held();
      return in_credit_epoch_ != epoch;
    });
  }
}

bool SessionTable::inject(SessionState& s, Record& r, bool block) {
  if (s.closed_.load(std::memory_order_acquire)) {
    throw std::logic_error("inject after close_input");
  }
  if (s.errored()) {
    rethrow_failure(s);
  }
  // Per-session output credit gate: a slow reader holds back its own
  // producer here, never the shared output entity downstream.
  if (s.out_cap_ != 0 && !await_output_account(s, block)) {
    return false;
  }
  r.set_session(&s);
  // The live increment precedes visibility downstream — a blocked inject
  // holds its record "live", so the network cannot quiesce under it.
  live_add(&s, 1);
  // Fast path: while no session anywhere has staged backlog (and this one
  // is not throttled), there is no admission order to arbitrate — deliver
  // straight to the entry, resolving an entry router on the client's
  // thread. A refusal (bounded inbox full) falls through to staging, which
  // lists the session and turns the DRR on for everyone; the dispatcher
  // resolves the record again when it forwards it.
  if (listed_count_.load(std::memory_order_acquire) == 0 && !s.throttled() &&
      s.staging_.empty()) {
    Entity::RouteTrail trail;
    Entity* target = nullptr;
    try {
      target = Router::walk(entry_, r, trail);
    } catch (...) {
      // A router that cannot route the record fails the network, not
      // the inject: the record's live charge is released.
      Router::note(trail, r, true);
      fail(std::current_exception());
      live_sub(&s, 1);
      injected_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    Message m = Message::record(std::move(r));
    if (target->try_deliver(m, trail)) {
      injected_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    r = std::move(m.rec);
  }
  // A full staging queue is "full" for a non-blocking caller; a blocking
  // one waits for the dispatcher to forward its backlog (on an executor
  // worker, help_until runs queued tasks instead of blocking the slot).
  while (!s.staging_.try_push(r)) {
    if (!block) {
      live_sub(&s, 1);
      r.set_session(nullptr);  // hand the record back untouched
      return false;
    }
    await_staging_credit(s);
  }
  injected_.fetch_add(1, std::memory_order_relaxed);
  list(&s, /*nudge=*/false);
  return true;
}

void SessionTable::close(SessionState& s) {
  if (!s.closed_.exchange(true, std::memory_order_acq_rel)) {
    open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
  }
  // A session that was already drained must wake its output waiters (and
  // wait() waiters watching for whole-network quiescence).
  {
    const MutexLock lock(out_mu_);
  }
  out_cv_.notify_all();
}

// ---------------------------------------------------------- output (demux)

Record SessionTable::pop_output_locked(SessionState& s, bool& crossed) {
  s.assert_output_locked();
  Record r = std::move(s.buffer_.front());
  s.buffer_.pop_front();
  const std::int64_t before =
      s.out_account_.fetch_sub(1, std::memory_order_relaxed);
  SNETSAC_INVARIANT(before >= 1, "session " << s.id()
                                            << " output account underflow: pop "
                                               "with account "
                                            << before);
  // Wake the session's gated injects only when this pop actually crossed
  // the credit bound (account cap → cap-1); pops above or below the
  // boundary cannot change the gate predicate, and an unconditional
  // notify would wake every blocked inject, next() and wait() caller per
  // consumed record.
  crossed = s.out_cap_ != 0 && before == static_cast<std::int64_t>(s.out_cap_);
  return r;
}

std::size_t SessionTable::take_output_locked(SessionState& s, std::vector<Record>* out) {
  s.assert_output_locked();
  const std::size_t n = s.buffer_.size();
  const std::int64_t before =
      s.out_account_.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  SNETSAC_INVARIANT(before >= static_cast<std::int64_t>(n),
                    "session " << s.id() << " output account underflow: took " << n
                               << " with account " << before);
  if (out != nullptr) {
    for (Record& r : s.buffer_) {
      out->push_back(std::move(r));
    }
  }
  s.buffer_.clear();
  return n;
}

std::size_t SessionTable::drain(SessionState& s, std::vector<Record>& out) {
  std::size_t n = 0;
  bool gated = false;
  {
    const MutexLock lock(out_mu_);
    s.assert_output_locked();
    // Whole-span release: wake gated injects whenever the account *was* at
    // or over the bound (the bulk pop may open the gate; a spurious wake
    // re-checks the predicate under the lock).
    gated = s.out_cap_ != 0 && s.out_account_.load(std::memory_order_relaxed) >=
                                   static_cast<std::int64_t>(s.out_cap_);
    n = take_output_locked(s, &out);
  }
  if (gated) {
    out_cv_.notify_all();
  }
  return n;
}

std::optional<Record> SessionTable::next(SessionState& s) {
  const auto session_done = [&] {
    return s.closed_.load(std::memory_order_acquire) &&
           s.live_.load(std::memory_order_acquire) == 0;
  };
  // Loops because the lock is released between the wait and the pop: a
  // concurrent consumer may take the output we were woken for.
  for (;;) {
    std::optional<Record> r;
    bool crossed = false;
    {
      const MutexLock lock(out_mu_);
      s.assert_output_locked();
      if (error_ || s.error_) {
        std::rethrow_exception(error_ ? error_ : s.error_);
      }
      if (!s.buffer_.empty()) {
        r = pop_output_locked(s, crossed);
      } else if (session_done()) {
        return std::nullopt;
      }
    }
    if (r.has_value()) {
      // The credit-bound notify runs after the lock is dropped.
      if (crossed) {
        out_cv_.notify_all();
      }
      return r;
    }
    // On an executor worker (a box draining a nested network) help_until
    // executes queued tasks, including this network's own quanta, instead
    // of blocking the pool slot; on a client thread it is a plain wait.
    exec_.help_until(out_mu_, out_cv_, [&] {
      out_mu_.assert_held();
      s.assert_output_locked();
      return error_ || s.error_ || !s.buffer_.empty() || session_done();
    });
  }
}

void SessionTable::on_output(SessionState& s, std::function<void(Record)> callback) {
  // Flush-then-install loop: the sink is only installed once the buffer
  // is observed empty under the lock, so a record pushed concurrently is
  // either buffered (and flushed by a later iteration, in order) or
  // delivered directly strictly after the flush completed — the callback
  // sees every record exactly once, in session order, serialised. The
  // buffer may hold more than the credit bound (records already in flight
  // when the gate closed); they all flush here.
  for (;;) {
    std::vector<Record> pending;
    {
      const MutexLock lock(out_mu_);
      s.assert_output_locked();
      if (s.sink_) {
        // Install-once: the output paths call through the stored sink
        // without copying it, which is only safe if it never changes.
        throw std::logic_error("on_output already installed for this session");
      }
      if (s.buffer_.empty()) {
        s.sink_ = std::move(callback);
        break;
      }
      take_output_locked(s, &pending);
    }
    for (auto& r : pending) {
      callback(std::move(r));
    }
  }
  // A sink disables the credit account for this session: wake injects
  // gated on it.
  out_cv_.notify_all();
}

void SessionTable::release(SessionState& s) {
  close(s);  // idempotent; decrements open_sessions_ once
  const std::uint32_t id = s.id();
  s.abandoned_.store(true, std::memory_order_release);
  // Lock order: dispatch_mu_ before out_mu_ (ranks 10 < 20). A session
  // still on the dispatcher's radar must not be reclaimed under it (a
  // transiently listed empty one merely defers reclamation to teardown).
  bool listed;
  {
    const MutexLock lock(dispatch_mu_);
    s.assert_dispatch_locked();
    listed = s.listed_;
  }
  bool reclaimed = false;
  {
    const MutexLock lock(out_mu_);
    take_output_locked(s, nullptr);  // unconsumed output is discarded
    // Eager reclamation is only safe while the interior cap is off: the
    // Interior's un-throttle and the fail-fast wakes hold the raw session
    // pointer beyond the records that normally guard it, so with
    // det_capacity > 0 a released state persists until teardown instead.
    if (net_.options().det_capacity == 0 && !listed &&
        s.live_.load(std::memory_order_acquire) == 0) {
      // Fully drained: live == 0 means no record carries the pointer and
      // no consumer touches the state again (see live_sub); nothing is
      // staged (staged records are live) and the dispatcher has let go.
      sessions_.erase(id);  // frees s — do not touch it below
      reclaimed = true;
      if (default_session_.load(std::memory_order_relaxed) == &s) {
        default_session_.store(nullptr, std::memory_order_release);
      }
    }
    // Else records in flight keep the state alive until teardown; they
    // drain into the abandoned-drop path.
  }
  out_cv_.notify_all();
  if (!reclaimed) {
    list(&s, /*nudge=*/true);  // the dispatcher drops any staged records
    net_.topology().poke_sync_cells();  // evict the released session's slots
  }
}

// ------------------------------------------------------- records in flight

void SessionTable::live_add(SessionState* session, std::int64_t n) {
  if (session != nullptr) {
    session->live_.fetch_add(n, std::memory_order_acq_rel);
  }
  const std::int64_t now = live_.add(n);
  SNETSAC_INVARIANT(now >= n, "network live counter was negative before add: "
                                  << now - n);
}

void SessionTable::live_sub(SessionState* session, std::int64_t n) {
  bool session_drained = false;
  if (session != nullptr) {
    // The decrement to zero is the *last* touch of the session state: a
    // drained session may be reclaimed by a concurrent handle release
    // the moment live hits 0, so no closed_/etc. reads after fetch_sub.
    // The notify below is unconditional on drain-to-zero; waiters
    // re-check closed/live under out_mu_ (spurious wakeups are cheap,
    // and the close path notifies too — between them every transition
    // of "closed && live == 0" is covered).
    const std::int64_t after =
        session->live_.fetch_sub(n, std::memory_order_acq_rel) - n;
    SNETSAC_INVARIANT(after >= 0,
                      "session live counter went negative: " << after);
    session_drained = after == 0;
  }
  const std::int64_t now = live_.sub(n);
  SNETSAC_INVARIANT(now >= 0, "network live counter went negative: " << now);
  const bool network_drained =
      now == 0 && open_sessions_.load(std::memory_order_acquire) == 0;
  if (session_drained || network_drained) {
    const MutexLock lock(out_mu_);
    out_cv_.notify_all();
  }
}

void SessionTable::push_output_batch(std::vector<Record>& records) {
  // Unstamped records (never crossed a port) resolve to the default
  // session *before* the critical section: default_session() takes
  // out_mu_ itself on first use.
  SessionState* fallback = nullptr;
  for (const Record& r : records) {
    if (r.session_state() == nullptr) {
      fallback = default_session();
      break;
    }
  }
  // Sink deliveries happen outside the lock, in batch order. Safe without
  // a per-record copy because a sink is install-once (on_output rejects
  // re-installation), the install was observed under out_mu_, and the
  // record in hand keeps the session state alive (live > 0 until the
  // output entity's consume decrement). Serialised: only the single
  // worker running the output entity reaches here.
  std::vector<std::pair<SessionState*, Record>> sink_calls;
  bool any_buffered = false;
  {
    const MutexLock lock(out_mu_);
    for (Record& r : records) {
      SessionState* const s =
          r.session_state() != nullptr ? r.session_state() : fallback;
      s->assert_output_locked();
      if (s->abandoned() || s->errored()) {
        continue;  // dropped: nobody can ever consume this session's output
      }
      ++produced_;
      ++s->produced_;
      if (s->sink_) {
        sink_calls.emplace_back(s, std::move(r));
        continue;
      }
      // Every record is buffered, including the ones that were already in
      // flight when the account reached its bound: the account gates the
      // session's injects, never this shared entity.
      if (s->out_cap_ != 0 && s->buffer_.size() >= s->out_cap_) {
        s->output_stalls_.fetch_add(1, std::memory_order_relaxed);
      }
      s->buffer_.push_back(std::move(r));
      s->out_account_.fetch_add(1, std::memory_order_relaxed);
      any_buffered = true;
    }
  }
  for (auto& [s, rec] : sink_calls) {
    s->deliver_to_sink(std::move(rec));
  }
  if (any_buffered) {
    out_cv_.notify_all();
  }
  records.clear();
}

// ----------------------------------------------------------------- failure

void SessionTable::fail_session(SessionState* s, std::exception_ptr err) {
  {
    const MutexLock lock(out_mu_);
    if (s == nullptr) {
      if (!error_) {
        error_ = err;
      }
      failed_.store(true, std::memory_order_release);
    } else {
      s->assert_output_locked();
      if (!s->error_) {
        s->error_ = err;
      }
      s->errored_.store(true, std::memory_order_release);
      take_output_locked(*s, nullptr);  // nobody may pop a failed session's output
    }
  }
  out_cv_.notify_all();
  // Wake injects blocked on staging credit: a failed pipeline may never
  // drain, so they must observe the error and rethrow instead of hanging.
  bump_credit_epoch();
  if (s != nullptr) {
    list(s, /*nudge=*/true);  // the dispatcher drops the session's staged records
    net_.topology().poke_sync_cells();  // evict any slots the dead session left behind
  }
}

void SessionTable::wait() {
  exec_.help_until(out_mu_, out_cv_, [&] {
    out_mu_.assert_held();
    return error_ || done_locked();
  });
  const MutexLock lock(out_mu_);
  if (error_) {
    std::rethrow_exception(error_);
  }
}

// ------------------------------------------------------ stats, invariants

void SessionTable::stats(NetworkStats& out) const {
  out.injected = injected_.load();
  out.peak_live = live_.peak.load();
  {
    const MutexLock lock(out_mu_);
    out.produced = produced_;
    out.sessions = sessions_opened_;  // cumulative, survives reclamation
    for (const auto& [id, state] : sessions_) {
      state->assert_output_locked();
      out.session_stats.push_back(SessionStats{
          .id = id,
          .weight = state->weight(),
          .errored = state->errored(),
          .live = state->live_.load(std::memory_order_relaxed),
          .output_account = state->out_account_.load(std::memory_order_relaxed),
          .produced = state->produced_,
          .forwarded = state->forwarded_.load(std::memory_order_relaxed),
          .dispatch_turns = state->drr_turns_.load(std::memory_order_relaxed),
          .credit_waits = state->credit_waits_.load(std::memory_order_relaxed),
          .output_stalls = state->output_stalls_.load(std::memory_order_relaxed),
          .spilled = state->spilled_.load(std::memory_order_relaxed)});
    }
  }
  std::sort(out.session_stats.begin(), out.session_stats.end(),
            [](const SessionStats& a, const SessionStats& b) { return a.id < b.id; });
}

void SessionTable::check(bool expect_quiescent) const {
  using snetsac::runtime::invariant_failure;
  const std::int64_t live = live_.now.load(std::memory_order_acquire);
  const std::int64_t open = open_sessions_.load(std::memory_order_acquire);
  if (live < 0) {
    invariant_failure("live-record counter non-negative",
                      "network live counter is " + std::to_string(live));
  }
  if (open < 0) {
    invariant_failure("open-session counter non-negative",
                      "open_sessions is " + std::to_string(open));
  }
  if (expect_quiescent && (live != 0 || open != 0)) {
    invariant_failure(
        "quiescence only at true zero",
        "expected a quiescent network but live=" + std::to_string(live) +
            " open_sessions=" + std::to_string(open));
  }
  const MutexLock lock(out_mu_);
  for (const auto& [id, state] : sessions_) {
    state->assert_output_locked();
    const std::string where = "session " + std::to_string(id) + ": ";
    const std::int64_t account = state->out_account_.load(std::memory_order_acquire);
    const std::int64_t slive = state->live_.load(std::memory_order_acquire);
    const auto buffered = static_cast<std::int64_t>(state->buffer_.size());
    if (slive < 0) {
      invariant_failure("live-record counter non-negative",
                        where + "live=" + std::to_string(slive));
    }
    if (account < 0) {
      invariant_failure("output credit account non-negative",
                        where + "account=" + std::to_string(account));
    }
    // The conservation law of the output credit protocol: every charge
    // against the account is a buffered record awaiting the client.
    // Holds under out_mu_ at every instant — both quantities mutate in
    // the same critical sections — including for abandoned/errored
    // sessions (their discard paths retire the buffer and its charges
    // together).
    if (account != buffered) {
      invariant_failure("output credit conservation (account == buffered)",
                        where + "account=" + std::to_string(account) +
                            " buffered=" + std::to_string(buffered));
    }
    if (expect_quiescent && slive != 0) {
      invariant_failure("quiescence only at true zero",
                        where + "live=" + std::to_string(slive) +
                            " in a supposedly quiescent network");
    }
    // Lost-wakeup law: a credit waiter registered on a staging queue
    // that has drained to (or below) the release watermark was never
    // notified — the wakeup its registration guaranteed is gone. Valid
    // at safe points only: mid-drain the collector has not fired yet.
    if (state->staging_.lost_wakeup_suspected()) {
      invariant_failure(
          "no lost wakeup on staging credit",
          where + std::to_string(state->staging_.waiter_count()) +
              " credit waiter(s) registered below the release watermark");
    }
  }
}

}  // namespace snet
