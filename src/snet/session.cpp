#include "snet/session.hpp"

#include <algorithm>

#include "snet/network.hpp"

namespace snet {

// Ports are thin facades: the logic (and all locking) lives in Network's
// port_* methods, one translation unit away from the entity runtime that
// shares the same mutexes.

SessionState::SessionState(Network& net, std::uint32_t id, SessionOptions opts)
    : out_mu_(net.output_mutex()),
      dispatch_mu_(net.dispatch_mutex()),
      id_(id),
      weight_(opts.weight == 0 ? 1U : opts.weight),
      out_cap_(opts.output_capacity),
      in_(net, *this),
      out_(net, *this) {
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

void InputPort::inject(Record r) { net_->port_inject(*state_, r, /*block=*/true); }

bool InputPort::try_inject(Record& r) {
  return net_->port_inject(*state_, r, /*block=*/false);
}

void InputPort::inject_all(std::vector<Record> records) {
  for (Record& r : records) {
    net_->port_inject(*state_, r, /*block=*/true);
  }
}

void InputPort::close() { net_->port_close(*state_); }

bool InputPort::closed() const {
  return state_->closed_.load(std::memory_order_acquire);
}

std::optional<Record> OutputPort::next() { return net_->port_next(*state_); }

std::vector<Record> OutputPort::collect() {
  if (!state_->input().closed()) {
    net_->port_close(*state_);
  }
  std::vector<Record> all;
  // Block for the first record of each span via port_next, then take
  // whatever else the buffer holds in one drain — one lock per produced
  // batch instead of one per record.
  while (auto r = net_->port_next(*state_)) {
    all.push_back(std::move(*r));
    net_->port_drain(*state_, all);
  }
  return all;
}

std::size_t OutputPort::next_span(std::vector<Record>& out) {
  auto r = net_->port_next(*state_);
  if (!r) {
    return 0;
  }
  out.push_back(std::move(*r));
  return 1 + net_->port_drain(*state_, out);
}

void OutputPort::on_output(std::function<void(Record)> callback) {
  net_->port_on_output(*state_, std::move(callback));
}

void Session::release() {
  if (state_ != nullptr) {
    net_->port_release(*state_);
    state_ = nullptr;  // may be reclaimed; the handle must forget it
    net_ = nullptr;
  }
}

}  // namespace snet
