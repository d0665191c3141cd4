#include "snet/network.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "runtime/invariants.hpp"
#include "snet/entities.hpp"
#include "snet/verify.hpp"
#include "snet/wire.hpp"

namespace snet {

using snetsac::runtime::MutexLock;
using snetsac::runtime::UniqueLock;

std::size_t NetworkStats::count_containing(std::string_view needle) const {
  return static_cast<std::size_t>(
      std::count_if(entities.begin(), entities.end(), [&](const EntityStats& e) {
        return e.name.find(needle) != std::string::npos;
      }));
}

std::uint64_t NetworkStats::records_in_containing(std::string_view needle) const {
  std::uint64_t total = 0;
  for (const auto& e : entities) {
    if (e.name.find(needle) != std::string::npos) {
      total += e.records_in;
    }
  }
  return total;
}

Network::Network(Net topology, Options opts)
    : topology_(std::move(topology)),
      opts_(std::move(opts)),
      exec_(opts_.executor != nullptr
                ? *opts_.executor
                : static_cast<snetsac::runtime::ExecutorIface&>(
                      snetsac::runtime::Executor::global())) {
  if (!topology_) {
    throw std::invalid_argument("null topology");
  }
  // Declared lock order (checked builds verify it dynamically): entity
  // registry, then dispatch listing, then the output/session lock, then
  // the input-credit handshake; staging/inbox queues (50) and the
  // executor's internals (60/70) rank above all of them. Any acquisition
  // against ascending rank is half of a deadlock cycle and aborts the
  // first schedule that exercises it.
  reg_mu_.set_order(5, "network.reg_mu");
  dispatch_mu_.set_order(10, "network.dispatch_mu");
  out_mu_.set_order(20, "network.out_mu");
  in_mu_.set_order(30, "network.in_mu");
  // One shape-flow walk yields the complete diagnostic report and the
  // inferred signature. `Options::verify` decides what the report does
  // (nothing / stderr / VerifyError on any diagnostic); a type error —
  // what `infer` throws on — rejects the topology in every mode.
  VerifyOptions vo;
  vo.det_capacity = opts_.det_capacity;
  vo.det_fail_fast = opts_.det_overflow == OverflowPolicy::FailFast;
  vo.output_capacity = opts_.output_capacity;
  vo.inbox_capacity = opts_.inbox_capacity;
  VerifyReport report = snet::verify(topology_, vo);
  if (opts_.verify != VerifyMode::Off && !report.empty()) {
    if (opts_.verify == VerifyMode::Strict) {
      throw VerifyError(std::move(report));
    }
    std::fprintf(stderr, "snet verify: %s\n%s", describe(topology_).c_str(),
                 report.to_string().c_str());
  }
  if (const LintDiagnostic* e = report.first_type_error()) {
    throw TypeCheckError(e->message);
  }
  signature_ = NetSignature{required_input(topology_), std::move(report.output)};
  // All networks (and all with-loops) share the process-wide executor by
  // default; opts_.workers survives as this network's concurrency cap.
  // Schedcheck scenarios substitute a deterministic SimExecutor here.
  sched_ = std::make_unique<Scheduler>(exec_, opts_.workers, opts_.quantum);
  if (opts_.det_overflow == OverflowPolicy::Spill && opts_.spill_to_disk &&
      opts_.det_capacity > 0) {
    // The store is cheap to hold: no file exists until the first overflow.
    spill_store_ = std::make_unique<wire::SpillStore>(opts_.spill_dir);
  }
  entry_ = instantiate(topology_,
                       adopt(std::make_unique<detail::OutputEntity>(*this)), "net");
  dispatch_ = adopt(std::make_unique<detail::InputDispatchEntity>(*this, entry_));
}

Network::~Network() {
  // Stop workers before tearing down entities they might touch.
  sched_->stop();
}

SessionState* Network::new_session_state(std::uint32_t id, SessionOptions opts) {
  if (opts.output_capacity == 0) {
    opts.output_capacity = opts_.output_capacity;  // 0 = inherit the default
  }
  auto state = std::make_unique<SessionState>(*this, id, opts);
  SessionState* raw = state.get();
  {
    const MutexLock lock(out_mu_);
    sessions_.emplace(id, std::move(state));
    ++sessions_opened_;
  }
  open_sessions_.fetch_add(1, std::memory_order_acq_rel);
  return raw;
}

SessionState* Network::default_state() {
  // The default session (id 0) backs input()/output(). Created lazily so
  // a client that only ever open_session()s never owes it a close before
  // wait().
  SessionState* s = default_session_.load(std::memory_order_acquire);
  if (s != nullptr) {
    return s;
  }
  SessionOptions so;
  so.output_capacity = opts_.output_capacity;
  auto state = std::make_unique<SessionState>(*this, 0, so);
  {
    const MutexLock lock(out_mu_);
    s = default_session_.load(std::memory_order_relaxed);
    if (s != nullptr) {
      return s;  // another thread won the race
    }
    s = state.get();
    sessions_.emplace(0U, std::move(state));
    ++sessions_opened_;
    default_session_.store(s, std::memory_order_release);
  }
  open_sessions_.fetch_add(1, std::memory_order_acq_rel);
  return s;
}

InputPort& Network::input() { return default_state()->input(); }

OutputPort& Network::output() { return default_state()->output(); }

Session Network::open_session(SessionOptions opts) {
  return Session(*this,
                 *new_session_state(
                     next_session_id_.fetch_add(1, std::memory_order_relaxed),
                     opts));
}

// ------------------------------------------------- input dispatch listing

void Network::dispatch_list(SessionState* s) {
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
  if (fresh) {
    dispatch_->poke();
  }
}

void Network::dispatch_wake(SessionState* s) {
  {
    const MutexLock lock(dispatch_mu_);
    s->assert_dispatch_locked();
    if (!s->listed_) {
      s->listed_ = true;
      listed_count_.fetch_add(1, std::memory_order_acq_rel);
      dispatch_ready_.push_back(s);
    }
  }
  dispatch_->poke();
}

void Network::dispatch_take_ready(std::deque<SessionState*>& out) {
  const MutexLock lock(dispatch_mu_);
  out.insert(out.end(), dispatch_ready_.begin(), dispatch_ready_.end());
  dispatch_ready_.clear();
}

bool Network::dispatch_delist(SessionState* s) {
  // One critical section: the emptiness check and the listed_ flip must
  // not be separated — (a) a producer's staging push is totally ordered
  // against our empty() by the queue's own mutex, so either we see its
  // record (stay listed) or it sees listed_ == false afterwards and
  // re-lists with a poke: no staged record can strand; and (b) every
  // dispatcher touch of *s happens while s is listed (ring membership ⟺
  // listed_), which is what lets port_release reclaim an unlisted,
  // drained session without racing a use after free.
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

// ------------------------------------------------------ inject (per-port)

std::exception_ptr Network::failure_locked(SessionState& s) const {
  s.assert_output_locked();
  return error_ ? error_ : s.error_;
}

void Network::rethrow_failure(SessionState& s) const {
  std::exception_ptr err;
  {
    const MutexLock lock(out_mu_);
    err = failure_locked(s);
  }
  if (err) {
    std::rethrow_exception(err);
  }
}

bool Network::await_output_account(SessionState& s, bool block) {
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
    // The session's un-consumed output is at its credit bound: the
    // inject waits for the client to pop. This is the per-session
    // analogue of write(2) against a full pipe — and the whole point:
    // only *this* tenant waits, nobody else's stream is touched.
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

void Network::await_staging_credit(SessionState& s) {
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
  const bool registered = s.staging_.wait_for_credit([this] {
    {
      const MutexLock lock(in_mu_);
      ++in_credit_epoch_;
    }
    in_cv_.notify_all();
  });
  if (registered) {
    exec_.help_until(in_mu_, in_cv_, [&] {
      in_mu_.assert_held();
      return in_credit_epoch_ != epoch;
    });
  }
}

bool Network::port_inject(SessionState& s, Record& r, bool block) {
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
  // straight to the entry and skip the staging/DRR detour entirely. An
  // entry router is resolved right here, on the client's thread; its
  // trace and counters wait for the admission. The target refusing
  // (bounded inbox full) falls through to staging, which lists the
  // session and turns the DRR on for everyone; the dispatcher resolves
  // the record again when it forwards it.
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
  dispatch_list(&s);
  return true;
}

void Network::port_close(SessionState& s) {
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

Record Network::pop_output_locked(SessionState& s, bool& crossed) {
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

std::size_t Network::port_drain(SessionState& s, std::vector<Record>& out) {
  std::size_t n = 0;
  bool gated = false;
  {
    const MutexLock lock(out_mu_);
    s.assert_output_locked();
    n = s.buffer_.size();
    if (n == 0) {
      return 0;
    }
    const std::int64_t before = s.out_account_.fetch_sub(
        static_cast<std::int64_t>(n), std::memory_order_relaxed);
    SNETSAC_INVARIANT(
        before >= static_cast<std::int64_t>(n),
        "session " << s.id() << " output account underflow: drained " << n
                   << " with account " << before);
    // Whole-span release: wake gated injects whenever the account *was* at
    // or over the bound (the bulk pop may open the gate; a spurious wake
    // re-checks the predicate under the lock).
    gated = s.out_cap_ != 0 && before >= static_cast<std::int64_t>(s.out_cap_);
    for (Record& r : s.buffer_) {
      out.push_back(std::move(r));
    }
    s.buffer_.clear();
  }
  if (gated) {
    out_cv_.notify_all();
  }
  return n;
}

std::optional<Record> Network::port_next(SessionState& s) {
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
      if (const std::exception_ptr err = failure_locked(s)) {
        std::rethrow_exception(err);
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

void Network::port_on_output(SessionState& s, std::function<void(Record)> callback) {
  // Flush-then-install loop: the sink is only installed once the buffer
  // is observed empty under the lock, so a record pushed concurrently is
  // either buffered (and flushed by a later iteration, in order) or
  // delivered directly strictly after the flush completed — the callback
  // sees every record exactly once, in session order, serialised. The
  // buffer may hold more than the credit bound (records already in flight
  // when the gate closed); they all flush here.
  for (;;) {
    std::deque<Record> pending;
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
      pending.swap(s.buffer_);
      s.out_account_.fetch_sub(static_cast<std::int64_t>(pending.size()),
                               std::memory_order_relaxed);
    }
    for (auto& r : pending) {
      callback(std::move(r));
    }
  }
  // A sink disables the credit account for this session: wake injects
  // gated on it.
  out_cv_.notify_all();
}

void Network::wait() {
  exec_.help_until(out_mu_, out_cv_, [&] {
    out_mu_.assert_held();
    return error_ || done_locked();
  });
  const MutexLock lock(out_mu_);
  if (error_) {
    std::rethrow_exception(error_);
  }
}

NetworkStats Network::stats() const {
  NetworkStats s;
  {
    const MutexLock lock(reg_mu_);
    s.entities.reserve(entities_.size());
    for (const auto& e : entities_) {
      s.entities.push_back(EntityStats{e->name(), e->records_in(), e->records_out(),
                                       e->fused()});
    }
  }
  s.injected = injected_.load();
  {
    const MutexLock lock(out_mu_);
    s.produced = produced_;
    s.sessions = sessions_opened_;  // cumulative, survives reclamation
    s.session_stats.reserve(sessions_.size());
    for (const auto& [id, state] : sessions_) {
      state->assert_output_locked();
      SessionStats row;
      row.id = id;
      row.weight = state->weight();
      row.errored = state->errored();
      row.live = state->live_.load(std::memory_order_relaxed);
      row.output_account = state->out_account_.load(std::memory_order_relaxed);
      row.produced = state->produced_;
      row.forwarded = state->forwarded_.load(std::memory_order_relaxed);
      row.dispatch_turns = state->drr_turns_.load(std::memory_order_relaxed);
      row.credit_waits = state->credit_waits_.load(std::memory_order_relaxed);
      row.output_stalls = state->output_stalls_.load(std::memory_order_relaxed);
      row.spilled = state->spilled_.load(std::memory_order_relaxed);
      s.session_stats.push_back(row);
    }
  }
  std::sort(s.session_stats.begin(), s.session_stats.end(),
            [](const SessionStats& a, const SessionStats& b) { return a.id < b.id; });
  s.peak_live = peak_live_.load();
  s.quanta = sched_->quanta_executed();
  s.steals = sched_->steals();
  s.suspensions = suspensions_.load(std::memory_order_relaxed);
  s.det_buffered = det_buffered_.load(std::memory_order_relaxed);
  s.det_buffered_peak = det_buffered_peak_.load(std::memory_order_relaxed);
  if (spill_store_ != nullptr) {
    s.spill_on_disk = spill_store_->on_disk();
    s.spill_bytes = spill_store_->bytes_written();
  }
  return s;
}

void Network::det_buffer_add(std::int64_t n) {
  const std::int64_t now =
      det_buffered_.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = det_buffered_peak_.load(std::memory_order_relaxed);
  while (now > peak && !det_buffered_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Network::det_buffer_sub(std::int64_t n) {
  const std::int64_t now =
      det_buffered_.fetch_sub(n, std::memory_order_relaxed) - n;
  SNETSAC_INVARIANT(now >= 0,
                    "interior buffering gauge went negative: " << now);
}

void Network::live_add(SessionState* session, std::int64_t n) {
  if (session != nullptr) {
    session->live_.fetch_add(n, std::memory_order_acq_rel);
  }
  const std::int64_t now = live_.fetch_add(n, std::memory_order_acq_rel) + n;
  SNETSAC_INVARIANT(now >= n, "network live counter was negative before add: "
                                  << now - n);
  std::int64_t peak = peak_live_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_live_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void Network::live_sub(SessionState* session, std::int64_t n) {
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
  const std::int64_t now = live_.fetch_sub(n, std::memory_order_acq_rel) - n;
  SNETSAC_INVARIANT(now >= 0, "network live counter went negative: " << now);
  const bool network_drained =
      now == 0 && open_sessions_.load(std::memory_order_acquire) == 0;
  if (session_drained || network_drained) {
    const MutexLock lock(out_mu_);
    out_cv_.notify_all();
  }
}

void Network::push_output_batch(std::vector<Record>& records) {
  // Unstamped records (never crossed a port) resolve to the default
  // session *before* the critical section: default_state() takes out_mu_
  // itself on first use.
  SessionState* fallback = nullptr;
  for (const Record& r : records) {
    if (r.session_state() == nullptr) {
      fallback = default_state();
      break;
    }
  }
  // Sink deliveries happen outside the lock, in batch order. Safe without
  // a per-record copy because a sink is install-once (port_on_output
  // rejects re-installation), the install was observed under out_mu_, and
  // the record in hand keeps the session state alive (live > 0 until the
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

// ------------------------------------------- interior (det/sync) account

bool Network::interior_admit(SessionState* s) {
  if (s == nullptr || opts_.det_capacity == 0) {
    return true;
  }
  const std::int64_t now = s->interior_.fetch_add(1, std::memory_order_acq_rel) + 1;
  SNETSAC_INVARIANT(now >= 1, "session " << s->id()
                                         << " interior account was negative "
                                            "before admit: "
                                         << now - 1);
  return now <= static_cast<std::int64_t>(opts_.det_capacity);
}

void Network::interior_release(SessionState* s, std::int64_t n) {
  if (s == nullptr || opts_.det_capacity == 0) {
    return;
  }
  const std::int64_t now = s->interior_.fetch_sub(n, std::memory_order_acq_rel) - n;
  SNETSAC_INVARIANT(now >= 0, "session " << s->id()
                                         << " interior account went negative: "
                                         << now);
  if (now <= static_cast<std::int64_t>(opts_.det_capacity / 2) &&
      s->throttled_.exchange(false, std::memory_order_acq_rel)) {
    dispatch_wake(s);  // resume the session's input dispatch
  }
}

void Network::spill_session(SessionState* s) {
  if (s == nullptr) {
    return;
  }
  s->spilled_.fetch_add(1, std::memory_order_relaxed);
  s->throttled_.store(true, std::memory_order_release);
  // Throttle/drain race: if the interior already drained past the
  // watermark between our overflow observation and the store above, undo —
  // a throttled session with an empty interior would never be re-listed.
  if (s->interior_.load(std::memory_order_acquire) <=
          static_cast<std::int64_t>(opts_.det_capacity / 2) &&
      s->throttled_.exchange(false, std::memory_order_acq_rel)) {
    dispatch_wake(s);
  }
}

void Network::fail_session(SessionState* s, std::exception_ptr err) {
  if (s == nullptr) {
    fail(err);  // unstamped records have no session to isolate
    return;
  }
  {
    const MutexLock lock(out_mu_);
    s->assert_output_locked();
    if (!s->error_) {
      s->error_ = err;
    }
    s->errored_.store(true, std::memory_order_release);
    const std::int64_t after = s->out_account_.fetch_sub(
                                   static_cast<std::int64_t>(s->buffer_.size()),
                                   std::memory_order_relaxed) -
                               static_cast<std::int64_t>(s->buffer_.size());
    SNETSAC_INVARIANT(after >= 0, "session " << s->id()
                                             << " output account went negative "
                                                "discarding its buffer: "
                                             << after);
    s->buffer_.clear();
  }
  out_cv_.notify_all();
  // Wake injects blocked on staging credit; they observe errored() and
  // rethrow instead of hanging on a session that will never drain.
  {
    const MutexLock lock(in_mu_);
    ++in_credit_epoch_;
  }
  in_cv_.notify_all();
  dispatch_wake(s);  // the dispatcher drops the session's staged records
  poke_sync_entities();  // evict any slots the dead session left behind
}

void Network::poke_sync_entities() {
  std::vector<Entity*> cells;
  {
    const MutexLock lock(reg_mu_);
    cells = sync_entities_;
  }
  for (Entity* e : cells) {
    e->poke();
  }
}

void Network::port_release(SessionState& s) {
  port_close(s);  // idempotent; decrements open_sessions_ once
  const std::uint32_t id = s.id();
  s.abandoned_.store(true, std::memory_order_release);
  // Lock order: dispatch_mu_ before out_mu_ (ranks 10 < 20). A session
  // still on the dispatcher's radar must not be reclaimed under it;
  // listed_ implies staged records in every steady state (and a
  // transiently listed empty session merely defers reclamation to network
  // teardown).
  bool listed;
  {
    const MutexLock lock(dispatch_mu_);
    s.assert_dispatch_locked();
    listed = s.listed_;
  }
  bool reclaimed = false;
  {
    const MutexLock lock(out_mu_);
    s.assert_output_locked();
    s.out_account_.fetch_sub(static_cast<std::int64_t>(s.buffer_.size()),
                             std::memory_order_relaxed);
    s.buffer_.clear();  // unconsumed output is discarded
    // Eager reclamation is only safe while the interior-cap machinery is
    // off: un-throttle and fail-fast wakes (dispatch_wake from
    // interior_release / spill_session / fail_session) cache the raw
    // session pointer beyond the record lifetime that normally guards
    // it, so with det_capacity > 0 a released state persists until
    // network teardown instead (small, drained, harmless).
    if (opts_.det_capacity == 0 && !listed &&
        s.live_.load(std::memory_order_acquire) == 0) {
      // Fully drained: reclaim. live == 0 guarantees no record carries
      // the pointer and no consumer will touch the state again (see
      // live_sub); nothing is staged (staged records are live) and the
      // dispatcher has let go.
      sessions_.erase(id);  // frees s — do not touch it below
      reclaimed = true;
      if (default_session_.load(std::memory_order_relaxed) == &s) {
        default_session_.store(nullptr, std::memory_order_release);
      }
    }
    // Else: records still in flight keep the state alive; they drain
    // into the abandoned-drop path and the small state persists until
    // network teardown.
  }
  out_cv_.notify_all();
  if (!reclaimed) {
    dispatch_wake(&s);  // the dispatcher drops any staged records
    poke_sync_entities();  // evict any slots the released session holds
  }
}

void Network::fail(std::exception_ptr err) {
  {
    const MutexLock lock(out_mu_);
    if (!error_) {
      error_ = err;
    }
  }
  failed_.store(true, std::memory_order_release);
  out_cv_.notify_all();
  // Wake producers blocked on staging credit (see port_inject): a failed
  // pipeline may never drain, and they must observe the error.
  {
    const MutexLock lock(in_mu_);
    ++in_credit_epoch_;
  }
  in_cv_.notify_all();
}

// ---------------------------------------------------- protocol invariants

void Network::check_protocol_invariants(bool expect_quiescent) const {
  using snetsac::runtime::invariant_failure;
  const std::int64_t live = live_.load(std::memory_order_acquire);
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
  {
    const MutexLock lock(out_mu_);
    for (const auto& [id, state] : sessions_) {
      state->assert_output_locked();
      const std::string where = "session " + std::to_string(id) + ": ";
      const std::int64_t account =
          state->out_account_.load(std::memory_order_acquire);
      const std::int64_t slive = state->live_.load(std::memory_order_acquire);
      const std::int64_t interior =
          state->interior_.load(std::memory_order_acquire);
      const auto buffered = static_cast<std::int64_t>(state->buffer_.size());
      if (slive < 0) {
        invariant_failure("live-record counter non-negative",
                          where + "live=" + std::to_string(slive));
      }
      if (interior < 0) {
        invariant_failure("interior (det/sync) account non-negative",
                          where + "interior=" + std::to_string(interior));
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
  // Same lost-wakeup law for the interior inbox credit: a producer parked
  // on a consumer's inbox that has drained below the watermark will never
  // be poked again.
  std::vector<Entity*> ents;
  {
    const MutexLock lock(reg_mu_);
    ents.reserve(entities_.size());
    for (const auto& e : entities_) {
      ents.push_back(e.get());
    }
  }
  for (const Entity* e : ents) {
    if (e->inbox_lost_wakeup_suspected()) {
      invariant_failure("no lost wakeup on inbox credit",
                        "entity " + e->name() +
                            ": producer(s) parked below the release watermark");
    }
  }
}

void Network::trace_record(const Entity& target, const Record& r) {
  opts_.trace(target.name(), r);
}

namespace {

bool is_stage(const Net& n) {
  return n->kind == NetNode::Kind::Box || n->kind == NetNode::Kind::Filter;
}

void serial_leaves(const Net& n, std::vector<Net>& out) {
  if (n->kind == NetNode::Kind::Serial) {
    serial_leaves(n->left, out);
    serial_leaves(n->right, out);
  } else {
    out.push_back(n);
  }
}

/// The entity name instantiate gives a box or filter under \p prefix.
std::string stage_name(const Net& n, const std::string& prefix) {
  return n->kind == NetNode::Kind::Box ? prefix + "/box:" + n->name
                                       : prefix + "/filter";
}

/// The path instantiate builds parallel, star or split \p n at under
/// \p prefix: the name of a parallel's or split's router, the stem of a
/// star's stage routers (`/stage<n>`) and replicas (`/rep<n>`), and of a
/// det bracket's `-entry` and `-coll`.
std::string combinator_path(const Net& n, const std::string& prefix) {
  switch (n->kind) {
    case NetNode::Kind::Parallel:
      return prefix + "/par";
    case NetNode::Kind::Star:
      return prefix + "/star";
    default:
      return prefix + "/split";
  }
}

/// Adds \p producers to \p router's row of \p out, keeping first-seen
/// order on both levels.
void add_producers(std::vector<RoutedEdge>& out, const std::string& router,
                   const std::vector<std::string>& producers) {
  auto row = std::find_if(out.begin(), out.end(),
                          [&](const RoutedEdge& e) { return e.router == router; });
  if (row == out.end()) {
    out.push_back(RoutedEdge{router, {}});
    row = out.end() - 1;
  }
  for (const std::string& p : producers) {
    if (std::find(row->producers.begin(), row->producers.end(), p) ==
        row->producers.end()) {
      row->producers.push_back(p);
    }
  }
}

/// Walks \p n as instantiate builds it under \p prefix, fed by the
/// entities \p producers: records every router's producers in \p out and
/// returns the entities that emit \p n's output. A router passes its
/// records on, so it is the producer of whatever it resolves to next.
std::vector<std::string> collect_routed(const Net& n, const std::string& prefix,
                                        std::vector<std::string> producers,
                                        std::vector<RoutedEdge>& out) {
  switch (n->kind) {
    case NetNode::Kind::Box:
    case NetNode::Kind::Filter:
      return {stage_name(n, prefix)};
    case NetNode::Kind::Sync:
      return {prefix + "/sync"};
    case NetNode::Kind::Serial:
      for (const std::vector<Net>& segment : serial_segments(n)) {
        producers = segment.size() > 1
                        ? std::vector<std::string>{stage_name(segment.back(), prefix)}
                        : collect_routed(segment.front(), prefix, std::move(producers), out);
      }
      return producers;
    case NetNode::Kind::Parallel:
    case NetNode::Kind::Star:
    case NetNode::Kind::Split:
      break;
  }
  const std::string path = combinator_path(n, prefix);
  if (n->det) {
    producers = {path + "-entry"};
  }
  std::vector<std::string> exits;
  if (n->kind == NetNode::Kind::Parallel) {
    add_producers(out, path, producers);
    for (const ParallelBranch& b : parallel_branches(n, prefix)) {
      for (std::string& e : collect_routed(b.net, b.path, {path}, out)) {
        exits.push_back(std::move(e));
      }
    }
  } else if (n->kind == NetNode::Kind::Star) {
    // Every stage is one router: fed by the star's producers (stage 0) and
    // by the previous stage's replica; it is also what the star exits from.
    const std::string stage = path + "/stage*";
    add_producers(out, stage, producers);
    add_producers(out, stage, collect_routed(n->child, path + "/rep*", {stage}, out));
    exits = {stage};
  } else {
    add_producers(out, path, producers);
    exits = collect_routed(n->child, path + "[*]", {path}, out);
  }
  return n->det ? std::vector<std::string>{path + "-coll"} : exits;
}

void collect_fused(const Net& n, const std::string& prefix,
                   std::vector<std::vector<std::string>>& out) {
  switch (n->kind) {
    case NetNode::Kind::Box:
    case NetNode::Kind::Filter:
    case NetNode::Kind::Sync:
      return;
    case NetNode::Kind::Serial:
      for (const std::vector<Net>& segment : serial_segments(n)) {
        if (segment.size() > 1) {
          std::vector<std::string> names;
          for (const Net& stage : segment) {
            names.push_back(stage_name(stage, prefix));
          }
          out.push_back(std::move(names));
        } else {
          collect_fused(segment.front(), prefix, out);
        }
      }
      return;
    case NetNode::Kind::Parallel:
      // Names follow the default (batched) instantiation.
      for (const ParallelBranch& b : parallel_branches(n, prefix)) {
        collect_fused(b.net, b.path, out);
      }
      return;
    case NetNode::Kind::Star:
      collect_fused(n->child, prefix + "/star/rep*", out);
      return;
    case NetNode::Kind::Split:
      collect_fused(n->child, prefix + "/split[*]", out);
      return;
  }
}

}  // namespace

std::vector<std::vector<Net>> serial_segments(const Net& serial) {
  std::vector<Net> leaves;
  serial_leaves(serial, leaves);
  std::vector<std::vector<Net>> segments;
  bool open = false;     // the last segment is a box/filter run
  bool has_box = false;  // ... and already holds its box
  for (Net& leaf : leaves) {
    const bool box = leaf->kind == NetNode::Kind::Box;
    // A second box starts a new segment: box→box keeps its hop, so compute
    // stages stay pipelined across workers.
    if (!open || !is_stage(leaf) || (box && has_box)) {
      segments.emplace_back();
      has_box = false;
    }
    open = is_stage(leaf);
    has_box = has_box || box;
    segments.back().push_back(std::move(leaf));
  }
  return segments;
}

std::vector<std::vector<std::string>> fused_segments(const Net& topology) {
  std::vector<std::vector<std::string>> out;
  collect_fused(topology, "net", out);
  return out;
}

std::vector<RoutedEdge> routed_edges(const Net& topology) {
  std::vector<RoutedEdge> out;
  collect_routed(topology, "net", {"input"}, out);
  return out;
}

Entity* Network::adopt(std::unique_ptr<Entity> entity) {
  const MutexLock lock(reg_mu_);
  entities_.push_back(std::move(entity));
  return entities_.back().get();
}

Entity* Network::instantiate(const Net& node, Entity* successor,
                             const std::string& prefix) {
  using detail::BoxEntity;
  using detail::FilterEntity;
  using detail::ParallelEntity;
  using detail::SplitEntity;
  using detail::StarStageEntity;
  using detail::SyncEntity;

  switch (node->kind) {
    case NetNode::Kind::Box:
      return adopt(std::make_unique<BoxEntity>(*this, stage_name(node, prefix),
                                               node, successor));
    case NetNode::Kind::Filter:
      return adopt(std::make_unique<FilterEntity>(*this, stage_name(node, prefix),
                                                  node, successor));
    case NetNode::Kind::Serial: {
      // Linear-segment fusion: instantiated right to left, each segment's
      // stages after the first become inline stages of its first — their
      // only producer is their left neighbour, by construction.
      Entity* next = successor;
      const std::vector<std::vector<Net>> segments = serial_segments(node);
      std::vector<Entity*> stages;
      for (auto seg = segments.rbegin(); seg != segments.rend(); ++seg) {
        stages.clear();
        for (auto leaf = seg->rbegin(); leaf != seg->rend(); ++leaf) {
          next = instantiate(*leaf, next, prefix);
          stages.push_back(next);
        }
        stages.pop_back();  // the head keeps its inbox
        // Under the registry lock: stats() reads fused() under it, while a
        // split or star may be instantiating this replica mid-run.
        const MutexLock lock(reg_mu_);
        for (Entity* stage : stages) {
          stage->fuse_into(*next);
        }
      }
      return next;
    }
    case NetNode::Kind::Parallel:
      return instantiate_bracketed(node, successor, prefix, [&](Entity* merge_target) {
        // Nested non-deterministic parallels flatten into one N-ary
        // router (see parallel_branches), so `A | B | C` costs one routing
        // decision instead of a chain of binary ones.
        // Det parallels keep their own entry/collector bracket and are
        // instantiated as opaque branches.
        const std::vector<ParallelBranch> leaves = parallel_branches(node, prefix);
        std::vector<ParallelEntity::Branch> branches;
        branches.reserve(leaves.size());
        for (const ParallelBranch& b : leaves) {
          branches.push_back(ParallelEntity::Branch{
              required_input(b.net), instantiate(b.net, merge_target, b.path)});
        }
        return adopt(std::make_unique<ParallelEntity>(*this, combinator_path(node, prefix),
                                                      std::move(branches)));
      });
    case NetNode::Kind::Star:
      return instantiate_bracketed(node, successor, prefix, [&](Entity* exit_target) {
        return adopt(std::make_unique<StarStageEntity>(*this, combinator_path(node, prefix),
                                                       node, exit_target, 0));
      });
    case NetNode::Kind::Split:
      return instantiate_bracketed(node, successor, prefix, [&](Entity* merge_target) {
        return adopt(std::make_unique<SplitEntity>(*this, combinator_path(node, prefix),
                                                   node, merge_target));
      });
    case NetNode::Kind::Sync: {
      Entity* cell = adopt(
          std::make_unique<SyncEntity>(*this, prefix + "/sync", node, successor));
      {
        const MutexLock lock(reg_mu_);
        sync_entities_.push_back(cell);
      }
      return cell;
    }
  }
  throw std::logic_error("corrupt topology node");
}

Entity* Network::instantiate_bracketed(const Net& node, Entity* successor,
                                       const std::string& prefix,
                                       const std::function<Entity*(Entity*)>& build) {
  using detail::DetCollectorEntity;
  using detail::DetEntryEntity;
  if (!node->det) {
    return build(successor);
  }
  const std::string bracket = combinator_path(node, prefix);
  auto* coll = static_cast<DetCollectorEntity*>(
      adopt(std::make_unique<DetCollectorEntity>(*this, bracket + "-coll", successor)));
  auto* entry = static_cast<DetEntryEntity*>(
      adopt(std::make_unique<DetEntryEntity>(*this, bracket + "-entry", coll->scope())));
  entry->set_target(build(coll));
  return entry;
}

}  // namespace snet
