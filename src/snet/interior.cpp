#include "snet/interior.hpp"

#include <string>

#include "runtime/invariants.hpp"
#include "snet/detscope.hpp"
#include "snet/network.hpp"

namespace snet {

Interior::Interior(const Options& opts, SessionTable& sessions)
    : sessions_(sessions),
      cap_(opts.det_capacity),
      fail_fast_(opts.det_overflow == OverflowPolicy::FailFast) {
  if (!fail_fast_ && opts.spill_to_disk && cap_ > 0) {
    // The store is cheap to hold: no file exists until the first overflow.
    store_ = std::make_unique<wire::SpillStore>(opts.spill_dir);
  }
}

std::optional<Held> Interior::hold(Record r, const Entity& who) {
  SessionState* const s = r.session_state();
  if (s != nullptr && (s->errored() || s->abandoned())) {
    // Failed fast or released: nobody can ever consume the session's
    // output, and a dead tenant must not leave ghost contributions in
    // shared cells (nor hold its own liveness in them).
    return std::nullopt;
  }
  bool over = false;
  if (s != nullptr && cap_ != 0) {
    const std::int64_t now = s->interior_.fetch_add(1, std::memory_order_acq_rel) + 1;
    SNETSAC_INVARIANT(now >= 1, "session " << s->id()
                                           << " interior account was negative "
                                              "before admit: "
                                           << now - 1);
    over = now > static_cast<std::int64_t>(cap_);
  }
  if (over && fail_fast_) {
    release(s);  // undo: the record is dropped
    sessions_.fail_session(
        s, std::make_exception_ptr(SessionOverflowError(
               who.name() + ": interior buffering for session " +
               std::to_string(s->id()) + " exceeded Options::det_capacity")));
    return std::nullopt;
  }
  // The record lives on inside the network: keep it counted in every
  // enclosing det group and in the live total (the generic consume
  // decrements of the quantum are compensated here).
  for (const auto& st : r.det_stack()) {
    st.scope->adjust(st.seq, +1);
  }
  sessions_.live_add(s, 1);
  if (over) {
    // Spill: throttle the session's input dispatch and keep accepting.
    s->spilled_.fetch_add(1, std::memory_order_relaxed);
    s->throttled_.store(true, std::memory_order_release);
    // Throttle/drain race: if the interior already drained past the
    // watermark between the admit and the store above, undo — a
    // throttled session with an empty interior would never be re-listed.
    unthrottle_if_drained(s, s->interior_.load(std::memory_order_acquire));
    if (store_ != nullptr) {
      try {
        return Held(store_->spill(r));  // only the frame stays in memory
      } catch (const wire::WireError&) {
        // No codec for a payload, or I/O trouble: keep this one in memory.
      }
    }
  }
  buffered_.add(1);
  return Held(std::move(r));
}

Record Interior::take(Held& held) {
  Record r;
  if (auto* frame = std::get_if<wire::SpillFrame>(&held)) {
    // Restored records carry pointer-exact det stamps and session
    // identity (the store resolves them against its write-side tables).
    r = store_->restore(*frame);
  } else {
    r = std::move(std::get<Record>(held));
    const std::int64_t now = buffered_.sub(1);
    SNETSAC_INVARIANT(now >= 0, "interior buffering gauge went negative: " << now);
  }
  release(r.session_state());
  return r;
}

void Interior::release(SessionState* s) {
  if (s == nullptr || cap_ == 0) {
    return;
  }
  const std::int64_t now = s->interior_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  SNETSAC_INVARIANT(now >= 0, "session " << s->id()
                                         << " interior account went negative: "
                                         << now);
  unthrottle_if_drained(s, now);
}

void Interior::unthrottle_if_drained(SessionState* s, std::int64_t account) {
  if (account <= static_cast<std::int64_t>(cap_ / 2) &&
      s->throttled_.exchange(false, std::memory_order_acq_rel)) {
    sessions_.list(s, /*nudge=*/true);  // resume the session's input dispatch
  }
}

void Interior::check() const {
  using snetsac::runtime::invariant_failure;
  std::int64_t total = 0;
  sessions_.for_each([&](const SessionState& s) {
    const std::int64_t interior = s.interior_.load(std::memory_order_acquire);
    if (interior < 0) {
      invariant_failure("interior (det/sync) account non-negative",
                        "session " + std::to_string(s.id()) +
                            ": interior=" + std::to_string(interior));
    }
    total += interior;
  });
  // Every charge is a held record, in memory or on disk. Sessions are
  // never reclaimed while a cap is set, so the sum covers every account.
  const std::int64_t in_memory = buffered_.now.load(std::memory_order_acquire);
  const std::int64_t on_disk = store_ != nullptr ? store_->on_disk() : 0;
  if (cap_ > 0 && total != in_memory + on_disk) {
    invariant_failure("interior conservation (accounts == held in memory + on disk)",
                      "interior accounts sum to " + std::to_string(total) +
                          ", held in memory " + std::to_string(in_memory) +
                          ", on disk " + std::to_string(on_disk));
  }
}

void Interior::stats(NetworkStats& out) const {
  out.det_buffered = buffered_.now.load(std::memory_order_relaxed);
  out.det_buffered_peak = buffered_.peak.load(std::memory_order_relaxed);
  if (store_ != nullptr) {
    out.spill_on_disk = store_->on_disk();
    out.spill_bytes = store_->bytes_written();
  }
}

}  // namespace snet
