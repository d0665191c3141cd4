#include "snet/entity.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/invariants.hpp"
#include "snet/detscope.hpp"
#include "snet/network.hpp"

namespace snet {

Entity::Entity(Network& net, std::string name) : net_(net), name_(std::move(name)) {
  inbox_.set_capacity(net_.inbox_capacity());
  // Inbox queue locks rank above every network lock (see Network's
  // constructor): dispatch/output critical sections may push into an
  // inbox, never the other way around.
  inbox_.set_lock_order(50, "entity.inbox");
  // Bounded inboxes keep batches small so the occupancy ceiling the stall
  // protocol guarantees (inbox bound + one quantum of overshoot) still
  // holds with emissions and consume decrements deferred to the flush:
  // buffered emissions + consumed-but-unsubbed records stay within one
  // quantum. Unbounded inboxes amortise harder.
  const std::size_t cap = net_.inbox_capacity();
  const unsigned quantum = net_.drr_grant();
  flush_threshold_ =
      cap == 0 ? std::max<std::size_t>(256, quantum)
               : std::max<std::size_t>(1, std::min<std::size_t>(cap / 2, quantum));
}

Entity::Entity(Network& net, std::string name, RouterTag) : Entity(net, std::move(name)) {
  routes_ = true;
}

void Entity::on_record(Record) {
  quantum_role_.assert_held();
  throw std::logic_error(name_ + " received a record");
}

void Entity::schedule_after_push() {
  for (;;) {
    int s = state_.load(std::memory_order_acquire);
    switch (s) {
      case kIdle:
        if (state_.compare_exchange_weak(s, kQueued, std::memory_order_acq_rel)) {
          net_.scheduler().enqueue(this);
          return;
        }
        break;
      case kQueued:
        return;
      case kRunning:
        if (state_.compare_exchange_weak(s, kRunningPending,
                                         std::memory_order_acq_rel)) {
          return;
        }
        break;
      case kRunningPending:
        return;
      case kStalled:
        // Parked on downstream credit: the message waits in the inbox;
        // only resume_from_stall() may re-queue the entity.
        return;
      default:
        return;
    }
  }
}

bool Entity::deliver(Message m) {
  SNETSAC_INVARIANT(!routes_, "router " << name_ << " was delivered a message");
  if (m.kind == Message::Kind::Rec && net_.tracing()) {
    net_.trace_record(*this, m.rec);
  }
  const auto res = inbox_.push(std::move(m));
  schedule_after_push();
  return res.congested;
}

bool Entity::try_deliver(Message& m, const RouteTrail& via) {
  SNETSAC_INVARIANT(!routes_, "router " << name_ << " was delivered a message");
  if (m.kind == Message::Kind::Rec && net_.tracing()) {
    // The trace observer needs the record before it is moved into the
    // queue, so under tracing the capacity check and the push are two
    // steps; concurrent injectors can overshoot by their count. The
    // untraced path below is exact.
    if (inbox_.congested()) {
      return false;
    }
    Router::note(via, m.rec, false);
    net_.trace_record(*this, m.rec);
    inbox_.push(std::move(m));
  } else {
    // Untraced: counts only. Counted before the push, so a consumer that
    // finishes the record at once cannot complete the network ahead of
    // the counts; a refusal takes them back.
    Router::note(via, m.rec, false);
    if (!inbox_.try_push(m)) {
      Router::unnote(via);
      return false;
    }
  }
  schedule_after_push();
  return true;
}

bool Entity::deliver_all(std::vector<Message>& msgs) {
  SNETSAC_INVARIANT(!routes_, "router " << name_ << " was delivered a message");
  if (net_.tracing()) {
    for (const Message& m : msgs) {
      if (m.kind == Message::Kind::Rec) {
        net_.trace_record(*this, m.rec);
      }
    }
  }
  const auto res = inbox_.push_all(msgs);
  schedule_after_push();
  return res.congested;
}

bool Entity::await_inbox_credit(Entity* producer) {
  return inbox_.wait_for_credit([producer] { producer->resume_from_stall(); });
}

void Entity::resume_from_stall() {
  // The poke flag makes the resumed quantum start with on_poke(): an
  // entity whose pending work is internal (a det collector's buffered
  // groups) continues draining even when its inbox stays empty.
  resume_poke_.store(true, std::memory_order_release);
  int expected = kStalled;
  if (state_.compare_exchange_strong(expected, kQueued, std::memory_order_acq_rel)) {
    // Urgent: a credit-resumed entity jumps the ready queue. The consumer
    // that released the credit is waiting on exactly this entity's output,
    // so dispatching it behind a backlog of hot-session quanta would add
    // the whole queue's latency to every stall/resume cycle.
    net_.scheduler().enqueue(this, /*urgent=*/true);
  }
}

void Entity::release_inbox_credit() {
  released_.clear();
  inbox_.take_released(released_);
  for (auto& cb : released_) {
    cb();
  }
  released_.clear();
}

void Entity::run_quantum(unsigned max_messages) {
  // The quantum frame: the state machine already guarantees a single
  // runner (the scheduler only dispatches an entity after its CAS to
  // queued); the guard turns that protocol fact into a capability, so the
  // analysis proves every touch of worker-only state happens here — and
  // checked builds catch a double-dispatch bug as a recursive acquisition.
  const snetsac::runtime::RoleGuard quantum(quantum_role_);
  state_.store(kRunning, std::memory_order_release);
  if (resume_poke_.exchange(false, std::memory_order_acq_rel)) {
    try {
      on_poke();
    } catch (...) {
      net_.sessions().fail(std::current_exception());
    }
  }
  if (batch_pos_ >= batch_.size()) {
    // Batched drain: one inbox lock acquisition per quantum, not one per
    // message. batch_ is only touched by the single worker running us.
    batch_.clear();
    batch_pos_ = 0;
    inbox_.drain_into(batch_, max_messages);
    release_inbox_credit();
  }
  // Process the batch up to the quantum end or a stall request — a stall
  // leaves the remainder in batch_ (resume point batch_pos_), so nothing
  // is re-ordered or lost across a suspension.
  while (batch_pos_ < batch_.size() && !stall_gate_) {
    Message& msg = batch_[batch_pos_++];
    if (msg.kind == Message::Kind::Poke) {
      try {
        on_poke();
      } catch (...) {
        net_.sessions().fail(std::current_exception());
      }
      continue;
    }
    ++quantum_in_;
    Record r = std::move(msg.rec);
    // The stamp stack and session as the record arrived: the consume
    // decrements below must target exactly these even if on_record
    // rewrites the record's metadata. stamp_scratch_ is a reused member —
    // no per-record heap copy, and nothing at all for unstamped records.
    stamp_scratch_.clear();
    if (!r.det_stack().empty()) {
      stamp_scratch_.assign(r.det_stack().begin(), r.det_stack().end());
    }
    SessionState* const session = r.session_state();
    try {
      on_record(std::move(r));
    } catch (...) {
      net_.sessions().fail(std::current_exception());
    }
    // Consume decrements coalesce into the flush accumulators; they are
    // applied in flush_all() *after* this batch's emissions are pushed,
    // preserving the never-transiently-zero group invariant.
    for (const auto& s : stamp_scratch_) {
      det_delta_sub(s.scope, s.seq);
    }
    live_delta_sub(session);
  }
  if (batch_pos_ >= batch_.size()) {
    batch_.clear();  // drop payloads before parking, not at the next quantum
    batch_pos_ = 0;
  }
  // Quantum end: let staging entities complete their batches, then flush
  // buffered emissions and coalesced accounting — unconditionally, and in
  // particular *before* a stall parks the entity, so a parked entity owns
  // no buffered records and no unapplied decrements.
  try {
    on_quantum_end();
  } catch (...) {
    net_.sessions().fail(std::current_exception());
  }
  // Publish the inline stages' counter deltas in relaxed RMWs instead of
  // one per record, *before* flush_all: the flush applies the live-count
  // decrements that let a quiescence-gated stats reader proceed, so the
  // counters must already be visible by then. flush_all publishes this
  // entity's own.
  for (Entity* stage : fused_) {
    const snetsac::runtime::RoleGuard stage_role(stage->quantum_role_);
    stage->publish_counters();
  }
  flush_all();
  if (stall_gate_) {
    // Suspension: park as stalled *before* registering with the credit
    // source, so a release racing the registration finds the state it
    // must CAS. If credit returned in the meantime the gate declines the
    // registration and we re-queue ourselves immediately.
    StallGate gate = std::move(stall_gate_);
    stall_gate_ = nullptr;
    state_.store(kStalled, std::memory_order_release);
    net_.note_suspension();
    if (!gate(this)) {
      resume_from_stall();
    }
    return;
  }
  // Finalisation handshake with deliver(): either requeue (more input or a
  // producer raced us) or park as idle.
  for (;;) {
    if (!inbox_.empty()) {
      state_.store(kQueued, std::memory_order_release);
      net_.scheduler().enqueue(this);
      return;
    }
    int expected = kRunning;
    if (state_.compare_exchange_strong(expected, kIdle, std::memory_order_acq_rel)) {
      return;
    }
    // A producer marked us RunningPending; loop to re-examine the inbox.
    state_.store(kRunning, std::memory_order_release);
  }
}

void Entity::fuse_into(Entity& head) {
  head_ = &head;
  head.fused_.push_back(this);
}

void Entity::send(Entity* target, Record r) {
  ++quantum_out_;
  if (target->routes_) {
    target = resolve(target, r);
    if (target == nullptr) {
      return;  // never emitted: nothing to account
    }
  }
  if (target->head_ != nullptr) {
    run_inline(*target, std::move(r));
    return;
  }
  if (head_ != nullptr) {
    // An inline stage runs inside its head's quantum (run_inline holds
    // both roles on this thread): its emissions join the head's buffers
    // and accumulators, and a congested target stalls the head.
    head_->quantum_role_.assert_held();
    head_->emit_downstream(target, std::move(r));
    return;
  }
  emit_downstream(target, std::move(r));
}

void Entity::emit_downstream(Entity* target, Record r) {
  // Group/live increments accumulate with the staged message; flush_all
  // applies them immediately before the record becomes visible
  // downstream, so they are eager relative to visibility.
  note_emit_accounting(r);
  buffer_message(target, Message::record(std::move(r)));
}

void Entity::run_inline(Entity& stage, Record r) {
  // The stage's only producer is its left neighbour, which is running
  // right here — so the stage's role is free, and taking it makes the
  // stage's worker-only state as protected as in a quantum of its own.
  // The record is neither counted live nor in any det group: the producer
  // consumed-or-emitted nothing visible, and everything the stage emits is
  // accounted by the head as its own emission.
  if (net_.tracing()) {
    net_.trace_record(stage, r);
  }
  const snetsac::runtime::RoleGuard stage_role(stage.quantum_role_);
  ++stage.quantum_in_;
  try {
    stage.on_record(std::move(r));
  } catch (...) {
    net_.sessions().fail(std::current_exception());
  }
}

void Entity::publish_counters() {
  if (quantum_in_ != 0) {
    in_count_.fetch_add(quantum_in_, std::memory_order_relaxed);
    quantum_in_ = 0;
  }
  if (quantum_out_ != 0) {
    out_count_.fetch_add(quantum_out_, std::memory_order_relaxed);
    quantum_out_ = 0;
  }
}

void Entity::transfer(Entity* target, Record r) {
  ++quantum_out_;
  if (target->routes_) {
    target = resolve(target, r);
    if (target == nullptr) {
      // The dropped record was consumed: retire the live count and det
      // stamps it carried.
      for (const auto& s : r.det_stack()) {
        det_delta_sub(s.scope, s.seq);
      }
      live_delta_sub(r.session_state());
      return;
    }
  }
  buffer_message(target, Message::record(std::move(r)));
}

Entity* Entity::resolve(Entity* target, const Record& r) {
  RouteTrail trail;
  try {
    target = Router::walk(target, r, trail);
  } catch (...) {
    Router::note(trail, r, /*failed=*/true);
    net_.sessions().fail(std::current_exception());
    return nullptr;
  }
  // Counted before the record is staged, so the counts are visible before
  // anything the record's completion lets in (a quiescence-gated stats()).
  Router::note(trail, r, /*failed=*/false);
  return target;
}

Entity* Router::walk(Entity* target, const Record& r, RouteTrail& trail) {
  while (target->routes_) {
    auto* router = static_cast<Router*>(target);
    trail.emplace_back(router);
    target = router->pick(r);
  }
  return target;
}

void Router::unnote(const RouteTrail& trail) {
  for (Router* const router : trail) {
    router->in_count_.fetch_sub(1, std::memory_order_relaxed);
    router->out_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Router::note(const RouteTrail& trail, const Record& r, bool failed) {
  for (std::size_t i = 0; i < trail.size(); ++i) {
    Router* const router = trail[i];
    if (router->net_.tracing()) {
      router->net_.trace_record(*router, r);
    }
    router->in_count_.fetch_add(1, std::memory_order_relaxed);
    if (!failed || i + 1 < trail.size()) {
      router->out_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Entity::buffer_message(Entity* target, Message m) {
  // Emissions run in target bursts (a quantum's records mostly route the
  // same way), so try the previous buffer before scanning.
  EmitBuffer* buf = nullptr;
  if (last_buf_ < emit_bufs_.size() && emit_bufs_[last_buf_].target == target) {
    buf = &emit_bufs_[last_buf_];
  } else {
    for (std::size_t i = 0; i < emit_bufs_.size(); ++i) {
      if (emit_bufs_[i].target == target) {
        buf = &emit_bufs_[i];
        last_buf_ = i;
        break;
      }
    }
    if (buf == nullptr) {
      emit_bufs_.push_back(EmitBuffer{target, {}});
      last_buf_ = emit_bufs_.size() - 1;
      buf = &emit_bufs_.back();
    }
  }
  buf->msgs.push_back(std::move(m));
  if (++emit_pending_ >= flush_threshold_) {
    flush_all();
  }
}

void Entity::note_emit_accounting(const Record& r) {
  for (const auto& s : r.det_stack()) {
    det_delta_add(s.scope, s.seq);
  }
  live_delta_add(r.session_state());
}

void Entity::det_delta_add(DetScope* scope, std::uint64_t seq) {
  for (DetDelta& d : det_deltas_) {
    if (d.scope == scope && d.seq == seq) {
      ++d.add;
      return;
    }
  }
  det_deltas_.push_back(DetDelta{scope, seq, 1, 0});
}

void Entity::det_delta_sub(DetScope* scope, std::uint64_t seq) {
  for (DetDelta& d : det_deltas_) {
    if (d.scope == scope && d.seq == seq) {
      ++d.sub;
      return;
    }
  }
  det_deltas_.push_back(DetDelta{scope, seq, 0, 1});
}

void Entity::live_delta_add(SessionState* session) {
  for (LiveDelta& l : live_deltas_) {
    if (l.session == session) {
      ++l.add;
      return;
    }
  }
  live_deltas_.push_back(LiveDelta{session, 1, 0});
}

void Entity::live_delta_sub(SessionState* session) {
  for (LiveDelta& l : live_deltas_) {
    if (l.session == session) {
      ++l.sub;
      return;
    }
  }
  live_deltas_.push_back(LiveDelta{session, 0, 1});
}

void Entity::flush_all() {
  // Own counters first, flush or not: a record transferred mid-quantum
  // (the input dispatcher, a det collector's release) can complete the
  // network in this flush, before the quantum ends.
  publish_counters();
  if (emit_pending_ == 0 && det_deltas_.empty() && live_deltas_.empty()) {
    return;
  }
  // 1. Emission-side increments, before any staged record becomes visible
  //    (a consumer finishing the record before our accounting lands would
  //    otherwise drain a group or the live count to zero transiently).
  try {
    for (DetDelta& d : det_deltas_) {
      if (d.add != 0) {
        d.scope->adjust(d.seq, d.add);
        d.add = 0;
      }
    }
  } catch (...) {
    net_.sessions().fail(std::current_exception());
  }
  for (LiveDelta& l : live_deltas_) {
    if (l.add != 0) {
      net_.sessions().live_add(l.session, l.add);
      l.add = 0;
    }
  }
  // 2. One bounded push per (target, flush); the buffers preserve emission
  //    order per target. A congested bounded target requests a stall.
  for (EmitBuffer& buf : emit_bufs_) {
    if (buf.msgs.empty()) {
      continue;
    }
    Entity* const target = buf.target;
    const bool congested = target->deliver_all(buf.msgs);
    if (congested && target != this) {
      request_stall([target](Entity* producer) {
        return target->await_inbox_credit(producer);
      });
    }
  }
  emit_pending_ = 0;
  // 3. Consume-side decrements, now that every descendant emitted by this
  //    batch is visible and counted.
  try {
    for (DetDelta& d : det_deltas_) {
      if (d.sub != 0) {
        d.scope->adjust(d.seq, -d.sub);
      }
    }
  } catch (...) {
    net_.sessions().fail(std::current_exception());
  }
  det_deltas_.clear();
  for (LiveDelta& l : live_deltas_) {
    if (l.sub != 0) {
      net_.sessions().live_sub(l.session, l.sub);
    }
  }
  live_deltas_.clear();
}

}  // namespace snet
