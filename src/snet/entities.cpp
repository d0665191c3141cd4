#include "snet/entities.hpp"

#include <algorithm>

namespace snet::detail {

// ---------------------------------------------------------------- Output

void OutputEntity::on_record(Record r) {
  // Virtual dispatch severs the REQUIRES chain: every override re-asserts
  // the quantum role at entry (here and in every on_record/on_poke below).
  quantum_role_.assert_held();
  // Stamps must not escape to the client: det regions are closed by their
  // collectors before this point; clearing here is belt-and-braces.
  r.det_stack().clear();
  // Stage for the quantum-end batch push: one buffer-lock acquisition and
  // one client wakeup for the whole quantum. The staged record stays live
  // until run_quantum's flush (after on_quantum_end).
  staged_.push_back(std::move(r));
}

void OutputEntity::on_quantum_end() {
  quantum_role_.assert_held();
  if (!staged_.empty()) {
    net_.sessions().push_output_batch(staged_);
  }
}

// ----------------------------------------------------------------- Input

void InputDispatchEntity::fire_released() {
  for (auto& cb : released_) {
    cb();
  }
  released_.clear();
}

void InputDispatchEntity::drop_staged(SessionState* s) {
  while (auto r = s->staging_.try_pop_collect(released_)) {
    net_.sessions().live_sub(s, 1);  // dropped: released/errored sessions owe nobody
  }
  fire_released();
}

bool InputDispatchEntity::delist(SessionState* s) {
  // The session's forwarded records must reach the entry first: once it
  // is delisted (and no other session is listed), the client's next
  // inject may bypass staging straight into the entry, and would overtake
  // records still sitting in our emit buffer.
  flush_all();
  return net_.sessions().delist(s);
}

void InputDispatchEntity::on_poke() {
  quantum_role_.assert_held();
  // Weighted deficit-round-robin over the sessions with staged input.
  // Each turn grants deficit proportional to the session's weight and
  // forwards that many staged records into the shared entry; a hot
  // session's surplus waits in its own staging queue. The quantum budget
  // bounds one poke's work — leftover backlog re-pokes us so the worker
  // is yielded between rounds. A turn the budget or a stall cuts short
  // keeps its session at the ring front with the rest of its deficit, so
  // the next poke finishes that turn before anyone else's starts.
  net_.sessions().take_ready(active_);
  const unsigned grant = net_.drr_grant();
  unsigned budget = grant * 4;
  // Turns are bounded separately from the record budget: a ring full of
  // throttled/dropped sessions must not spin a quantum forever.
  unsigned turns = static_cast<unsigned>(active_.size()) + 4;
  while (turns-- > 0 && budget > 0 && !active_.empty() && !stall_requested()) {
    SessionState* s = active_.front();
    active_.pop_front();
    if (s->abandoned() || s->errored()) {
      drop_staged(s);
      if (!delist(s)) {
        active_.push_back(s);  // a racing inject re-listed it: drop next turn
      }
      continue;
    }
    if (s->throttled()) {
      // Interior (det/sync) account over its cap: pause this session's
      // admission. Interior re-lists it at the drain watermark; a
      // fresh inject after the delist re-lists too.
      if (!delist(s)) {
        active_.push_back(s);  // re-listed into our hands: keep it parked here
      }
      continue;
    }
    if (s->deficit_ == 0) {
      s->deficit_ = static_cast<std::int64_t>(grant) * s->weight();
      s->drr_turns_.fetch_add(1, std::memory_order_relaxed);
    }
    bool emptied = false;
    while (s->deficit_ > 0 && budget > 0 && !stall_requested()) {
      auto r = s->staging_.try_pop_collect(released_);
      if (!r) {
        emptied = true;
        break;
      }
      --s->deficit_;
      --budget;
      s->forwarded_.fetch_add(1, std::memory_order_relaxed);
      transfer(entry_, std::move(*r));
    }
    fire_released();
    if (emptied) {
      s->deficit_ = 0;  // classic DRR: no banking credit across idle gaps
      if (!delist(s)) {
        active_.push_back(s);  // a concurrent inject re-listed it our way
      }
    } else if (s->deficit_ > 0) {
      active_.push_front(s);  // cut short: resume this turn first
    } else {
      active_.push_back(s);  // turn complete: rotate
    }
  }
  if (stall_requested()) {
    return;  // the entry-credit resume re-enters here with the ring intact
  }
  // Self-poke only when some ring member is actually serviceable: a ring
  // of throttled-only sessions waits for the un-throttle instead of
  // spinning poke → skip → poke.
  for (SessionState* s : active_) {
    if (!s->throttled()) {
      poke();
      break;
    }
  }
}

// ------------------------------------------------------------------- Box

BoxEntity::BoxEntity(Network& net, std::string name, Net node, Entity* successor)
    : Entity(net, std::move(name)), node_(std::move(node)), succ_(successor),
      input_type_(node_->sig.input.type()) {}

void BoxEntity::on_record(Record r) {
  quantum_role_.assert_held();
  // Bind declared input labels; their presence is a type obligation. The
  // mask-then-subset match settles the common case; the per-label rescan
  // on failure only serves the error message.
  if (!input_type_.matches(r)) {
    for (const Label l : node_->sig.input.labels) {
      if (!r.has(l)) {
        throw NetTypeError("box " + node_->name + " received record " +
                           r.to_string() + " lacking declared label " +
                           label_display(l));
      }
    }
  }
  current_ = &r;
  const BoxInput in(r, node_->sig.input);
  try {
    node_->fn(in, *this);
  } catch (...) {
    current_ = nullptr;
    throw;
  }
  current_ = nullptr;
}

void BoxEntity::emit(int variant, std::vector<BoxArg> args) {
  quantum_role_.assert_held();
  if (current_ == nullptr) {
    throw BoxError("box " + node_->name + " called snet_out outside processing");
  }
  if (variant < 1 || static_cast<std::size_t>(variant) > node_->sig.outputs.size()) {
    throw BoxError("box " + node_->name + " emitted unknown variant " +
                   std::to_string(variant));
  }
  const SigVariant& out_sig = node_->sig.outputs[static_cast<std::size_t>(variant - 1)];
  if (args.size() != out_sig.labels.size()) {
    throw BoxError("box " + node_->name + " variant " + std::to_string(variant) +
                   " expects " + std::to_string(out_sig.labels.size()) +
                   " arguments, got " + std::to_string(args.size()));
  }
  // Argument validation stays per emission (the plan only knows layout);
  // every position is checked, as the unplanned loop did, even ones a
  // duplicate label later overwrites.
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (out_sig.labels[i].kind == LabelKind::Tag && !args[i].is_integer) {
      throw BoxError("box " + node_->name + " bound a payload to tag " +
                     label_display(out_sig.labels[i]));
    }
  }
  // Flow inheritance ("we retrieve excess fields and tags from incoming
  // records and extend any output record produced in response to this very
  // input record by these fields and tags, unless some label is already
  // present in the output record") is compiled per input shape: the
  // contains probes and sorted inserts ran once, in compile_emit_plans.
  const auto plans =
      emit_plans_.get_or(current_->shape(), [&] {
        quantum_role_.assert_held();
        return compile_emit_plans();
      });
  const CopyPlan& plan = (*plans)[static_cast<std::size_t>(variant - 1)];
  Record out = apply_copy_plan(
      plan, *current_,
      [&](std::uint32_t idx) {
        BoxArg& a = args[idx];
        return a.is_integer ? make_value(a.integer) : std::move(a.value);
      },
      [&](std::uint32_t idx) { return args[idx].integer; });
  send(succ_, std::move(out));
}

std::shared_ptr<const std::vector<CopyPlan>> BoxEntity::compile_emit_plans() const {
  auto plans = std::make_shared<std::vector<CopyPlan>>();
  plans->reserve(node_->sig.outputs.size());
  for (const SigVariant& out_sig : node_->sig.outputs) {
    CopyPlanBuilder b;
    for (std::size_t i = 0; i < out_sig.labels.size(); ++i) {
      const Label l = out_sig.labels[i];
      if (l.kind == LabelKind::Tag) {
        b.declare_tag(l, CopyPlan::Src::kExt, static_cast<std::uint32_t>(i));
      } else {
        b.declare_field(l, CopyPlan::Src::kExt, static_cast<std::uint32_t>(i));
      }
    }
    const RecordType& consumed = input_type_;
    for (std::size_t i = 0; i < current_->fields().size(); ++i) {
      const Label l = current_->fields()[i].first;
      if (!consumed.contains(l)) {
        b.inherit_field(l, static_cast<std::uint32_t>(i));
      }
    }
    for (std::size_t i = 0; i < current_->tags().size(); ++i) {
      const Label l = current_->tags()[i].first;
      if (!consumed.contains(l)) {
        b.inherit_tag(l, static_cast<std::uint32_t>(i));
      }
    }
    plans->push_back(b.finish());
  }
  return plans;
}

// ---------------------------------------------------------------- Filter

FilterEntity::FilterEntity(Network& net, std::string name, Net node,
                           Entity* successor)
    : Entity(net, std::move(name)), node_(std::move(node)), succ_(successor) {}

void FilterEntity::on_record(Record r) {
  quantum_role_.assert_held();
  // One memo lookup settles both the pattern's type match and the
  // compiled plans for this shape (null = type mismatch). The guard (tag
  // values) cannot be memoized and is evaluated per record; both the
  // mismatch and the guard-failure path go through apply() so the error
  // is identical to the unmemoized one.
  const Pattern& pat = node_->filter->pattern();
  const auto plans = plans_.get_or(
      r.shape(), [&]() -> std::shared_ptr<const FilterSpec::Compiled> {
        if (!pat.type.matches(r)) {
          return nullptr;
        }
        return std::make_shared<const FilterSpec::Compiled>(
            node_->filter->compile(r));
      });
  if (plans != nullptr && (!pat.guard || pat.guard->eval_bool(r))) {
    if (plans->outputs.size() == 1 && plans->outputs[0].identity) {
      // Identity plan: the output record *is* the input record — forward
      // it by move, no assembly at all.
      send(succ_, std::move(r));
      return;
    }
    std::vector<Record> produced = node_->filter->apply_planned(r, *plans);
    for (auto& out : produced) {
      send(succ_, std::move(out));
    }
    return;
  }
  std::vector<Record> produced = node_->filter->apply(r);
  for (auto& out : produced) {
    send(succ_, std::move(out));
  }
}

// -------------------------------------------------------------- Parallel

namespace {

std::vector<MultiType> branch_inputs(std::vector<ParallelEntity::Branch>& branches) {
  std::vector<MultiType> inputs;
  inputs.reserve(branches.size());
  for (auto& b : branches) {
    inputs.push_back(std::move(b.input));
  }
  return inputs;
}

}  // namespace

ParallelEntity::ParallelEntity(Network& net, std::string name,
                               std::vector<Branch> branches)
    : Router(net, std::move(name)), router_(branch_inputs(branches)) {
  entries_.reserve(branches.size());
  for (const Branch& b : branches) {
    entries_.push_back(b.entry);
  }
}

Entity* ParallelEntity::pick(const Record& r) {
  // Best-match routing, memoized per shape: each branch is scored once
  // when a shape is first seen; afterwards the decision is a lookup.
  // "If both branches in the streaming network match equally well, one is
  // selected non-deterministically" — ties alternate for fairness.
  const std::size_t chosen = router_.route(r);
  if (chosen == ParallelRouter::npos) {
    throw NetTypeError("parallel combinator " + name() + ": record " + r.to_string() +
                       " matches no branch");
  }
  return entries_[chosen];
}

// ------------------------------------------------------------------ Star

StarStageEntity::StarStageEntity(Network& net, std::string prefix, Net node,
                                 Entity* exit_target, unsigned stage)
    : Router(net, prefix + "/stage" + std::to_string(stage)),
      prefix_(std::move(prefix)),
      node_(std::move(node)),
      exit_target_(exit_target),
      stage_(stage) {
  unfold_mu_.set_order(kUnfoldLockRank, "router.unfold");
}

Entity* StarStageEntity::pick(const Record& r) {
  // Exit-tap decision, memoized per shape (the Fig. 3 guard `<level> > 40`
  // still runs per record — only the label-set half is cached).
  const Pattern& exit = node_->exit;
  bool scratch = false;
  const bool type_ok = exit_type_match_.get_or(r.shape(), scratch,
                                               [&] { return exit.type.matches(r); });
  if (type_ok && (!exit.guard || exit.guard->eval_bool(r))) {
    return exit_target_;
  }
  Entity* replica = replica_entry_.load(std::memory_order_acquire);
  return replica != nullptr ? replica : unfold();
}

Entity* StarStageEntity::unfold() {
  const snetsac::runtime::MutexLock lock(unfold_mu_);
  if (Entity* replica = replica_entry_.load(std::memory_order_relaxed)) {
    return replica;  // another producer unfolded it first
  }
  // Demand-driven unfolding: materialise this stage's replica and the
  // next tap, then publish the replica's entry.
  Topology& topology = net_.topology();
  Entity* next = topology.adopt(
      std::make_unique<StarStageEntity>(net_, prefix_, node_, exit_target_, stage_ + 1));
  Entity* replica =
      topology.instantiate(node_->child, next, prefix_ + "/rep" + std::to_string(stage_));
  replica_entry_.store(replica, std::memory_order_release);
  return replica;
}

// ----------------------------------------------------------------- Split

SplitEntity::SplitEntity(Network& net, std::string prefix, Net node,
                         Entity* successor)
    : Router(net, prefix), prefix_(std::move(prefix)), node_(std::move(node)),
      succ_(successor) {
  unfold_mu_.set_order(kUnfoldLockRank, "router.unfold");
}

Entity* SplitEntity::pick(const Record& r) {
  if (!r.has_tag(node_->split_tag)) {
    throw NetTypeError("parallel replication " + name() + ": record " +
                       r.to_string() + " lacks the replication tag " +
                       label_display(node_->split_tag));
  }
  const std::int64_t v = r.tag(node_->split_tag);
  if (Entity* const* replica = replicas_.find(v)) {
    return *replica;
  }
  const snetsac::runtime::MutexLock lock(unfold_mu_);
  if (Entity* const* replica = replicas_.find(v)) {
    return *replica;  // another producer instantiated it first
  }
  Entity* entry = net_.topology().instantiate(node_->child, succ_,
                                              prefix_ + "[" + std::to_string(v) + "]");
  return *replicas_.insert(v, entry);
}

// ------------------------------------------------------------- Det entry

DetEntryEntity::DetEntryEntity(Network& net, std::string name, DetScope* scope)
    : Entity(net, std::move(name)), scope_(scope) {}

void DetEntryEntity::on_record(Record r) {
  quantum_role_.assert_held();
  const std::uint64_t seq = scope_->open_group();
  r.det_stack().push_back(DetStamp{scope_, seq});
  send(target_, std::move(r));
}

// --------------------------------------------------------- Det collector

DetCollectorEntity::DetCollectorEntity(Network& net, std::string name,
                                       Entity* successor)
    : Entity(net, name), scope_(name), succ_(successor) {
  scope_.set_collector(this);
}

void DetCollectorEntity::on_record(Record r) {
  quantum_role_.assert_held();
  auto& stack = r.det_stack();
  if (stack.empty() || stack.back().scope != &scope_) {
    throw std::logic_error("det collector " + name() +
                           " received record without its stamp");
  }
  const std::uint64_t seq = stack.back().seq;
  stack.pop_back();
  if (auto held = net_.interior().hold(std::move(r), *this)) {
    buffer_[seq].push_back(std::move(*held));
  }
}

void DetCollectorEntity::on_poke() {
  quantum_role_.assert_held();
  // Releases complete groups in sequence order. Stall-aware: a transfer
  // into a congested successor requests a stall; we then park mid-group
  // (the deque keeps the resume point) and the resume poke re-enters here.
  while (!stall_requested() && next_release_ < scope_.groups_opened() &&
         scope_.complete(next_release_)) {
    const auto it = buffer_.find(next_release_);
    if (it != buffer_.end()) {
      std::deque<Held>& group = it->second;
      while (!group.empty() && !stall_requested()) {
        Record rec = net_.interior().take(group.front());
        group.pop_front();
        transfer(succ_, std::move(rec));
      }
      if (!group.empty()) {
        return;  // suspended mid-group; next_release_ stays put
      }
      buffer_.erase(it);
    }
    ++next_release_;
  }
}

// ------------------------------------------------------------------ Sync

SyncEntity::SyncEntity(Network& net, std::string name, Net node, Entity* successor)
    : Entity(net, std::move(name)), node_(std::move(node)), succ_(successor),
      slots_(node_->sync_patterns.size()) {}

Record SyncEntity::consume(Slot& slot) {
  Record stored = net_.interior().take(*slot.held);
  slot.held.reset();
  slot.session = nullptr;
  for (const auto& st : stored.det_stack()) {
    st.scope->adjust(st.seq, -1);
  }
  net_.sessions().live_sub(stored.session_state(), 1);
  return stored;
}

void SyncEntity::on_poke() {
  quantum_role_.assert_held();
  // Poked by fail_session / release: evict slots whose owning session
  // died. The stored record is consumed exactly as a merge would, so the
  // dead session can drain to zero and the network can quiesce. The
  // cached owner pointer keeps the liveness test cheap; a disk-backed
  // slot is only restored (then discarded) when it actually needs
  // unwinding — its det stamps live in the spill file.
  for (auto& slot : slots_) {
    SessionState* const s = slot.session;
    if (slot.filled() && s != nullptr && (s->errored() || s->abandoned())) {
      consume(slot);
    }
  }
}

std::uint64_t SyncEntity::slot_type_matches(const Record& r) {
  return slot_match_.get_or(r.shape(), [&] {
    quantum_role_.assert_held();
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (node_->sync_patterns[i].type.matches(r)) {
        bits |= 1ULL << i;
      }
    }
    return bits;
  });
}

void SyncEntity::on_record(Record r) {
  quantum_role_.assert_held();
  if (!fired_) {
    // Per-shape slot bitset when the cell is small enough; the guard of a
    // pattern is still evaluated per record.
    const bool memoized = slots_.size() <= 64;
    const std::uint64_t bits = memoized ? slot_type_matches(r) : 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].filled()) {
        continue;
      }
      const Pattern& pat = node_->sync_patterns[i];
      if (memoized ? ((bits >> i) & 1) == 0 || (pat.guard && !pat.guard->eval_bool(r))
                   : !pat.matches(r)) {
        continue;
      }
      const bool last_missing =
          std::count_if(slots_.begin(), slots_.end(),
                        [](const auto& s) { return s.filled(); }) ==
          static_cast<std::ptrdiff_t>(slots_.size()) - 1;
      if (!last_missing) {
        // Storing charges the record's session's interior account: a
        // tenant filling synchrocell slots across many replicas is the
        // same adversarial buffering a det collector sees.
        SessionState* const session = r.session_state();
        if (auto held = net_.interior().hold(std::move(r), *this)) {
          slots_[i].held = std::move(held);
          slots_[i].session = session;
        }
        return;
      }
      // This record completes the cell: merge all stored records into it
      // (slot order precedence for duplicate labels).
      Record merged = std::move(r);
      for (auto& slot : slots_) {
        if (!slot.filled()) {
          continue;
        }
        // The stored record is consumed here. (A record stored by session
        // A may complete a cell fired by session B: the merged record
        // belongs to B — synchrocells join across sessions by design.)
        const Record stored = consume(slot);
        for (const auto& [label, value] : stored.fields()) {
          if (!merged.has_field(label)) {
            merged.set_field(label, value);
          }
        }
        for (const auto& [label, value] : stored.tags()) {
          if (!merged.has_tag(label)) {
            merged.set_tag(label, value);
          }
        }
      }
      fired_ = true;
      send(succ_, std::move(merged));
      return;
    }
  }
  // Fired, or no unfilled pattern matches: the cell is the identity.
  send(succ_, std::move(r));
}

}  // namespace snet::detail
