#include "snet/network.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "snet/entities.hpp"
#include "snet/verify.hpp"

namespace snet {

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

// Declared lock order (checked builds verify it dynamically): the entity
// registry (Topology, 5), then the dispatch listing (10), the output/
// session lock (20) and the input-credit handshake (30), all three the
// SessionTable's; staging/inbox queues (50) and the executor's internals
// (60/70) rank above all of them. Any acquisition against ascending rank
// is half of a deadlock cycle and aborts the first schedule that
// exercises it.
Network::Network(Net topology, Options opts)
    : topology_net_(std::move(topology)),
      opts_(std::move(opts)),
      exec_(opts_.executor != nullptr
                ? *opts_.executor
                : static_cast<snetsac::runtime::ExecutorIface&>(
                      snetsac::runtime::Executor::global())),
      topology_(*this),
      sessions_(*this, exec_),
      interior_(opts_, sessions_) {
  if (!topology_net_) {
    throw std::invalid_argument("null topology");
  }
  // One shape-flow walk yields the complete diagnostic report and the
  // inferred signature. `Options::verify` decides what the report does
  // (nothing / stderr / VerifyError on any diagnostic); a type error —
  // what `infer` throws on — rejects the topology in every mode.
  VerifyOptions vo;
  vo.det_capacity = opts_.det_capacity;
  vo.det_fail_fast = opts_.det_overflow == OverflowPolicy::FailFast;
  vo.output_capacity = opts_.output_capacity;
  vo.inbox_capacity = opts_.inbox_capacity;
  VerifyReport report = snet::verify(topology_net_, vo);
  if (opts_.verify != VerifyMode::Off && !report.empty()) {
    if (opts_.verify == VerifyMode::Strict) {
      throw VerifyError(std::move(report));
    }
    std::fprintf(stderr, "snet verify: %s\n%s", describe(topology_net_).c_str(),
                 report.to_string().c_str());
  }
  if (const LintDiagnostic* e = report.first_type_error()) {
    throw TypeCheckError(e->message);
  }
  signature_ = NetSignature{required_input(topology_net_), std::move(report.output)};
  // All networks (and all with-loops) share the process-wide executor by
  // default; opts_.workers survives as this network's concurrency cap.
  // Schedcheck scenarios substitute a deterministic SimExecutor here.
  sched_ = std::make_unique<Scheduler>(exec_, opts_.workers, opts_.quantum);
  Entity* entry = topology_.instantiate(
      topology_net_, topology_.adopt(std::make_unique<detail::OutputEntity>(*this)), "net");
  sessions_.attach(entry, topology_.adopt(
                              std::make_unique<detail::InputDispatchEntity>(*this, entry)));
}

Network::~Network() {
  // Stop workers before tearing down entities they might touch.
  sched_->stop();
}

InputPort& Network::input() { return sessions_.default_session()->input(); }

OutputPort& Network::output() { return sessions_.default_session()->output(); }

Session Network::open_session(SessionOptions opts) { return sessions_.open(opts); }

void Network::wait() { sessions_.wait(); }

NetworkStats Network::stats() const {
  NetworkStats s;
  topology_.stats(s);
  sessions_.stats(s);
  interior_.stats(s);
  s.quanta = sched_->quanta_executed();
  s.steals = sched_->steals();
  s.suspensions = suspensions_.load(std::memory_order_relaxed);
  return s;
}

void Network::check_protocol_invariants(bool expect_quiescent) const {
  sessions_.check(expect_quiescent);
  interior_.check();
  topology_.check();
}

void Network::trace_record(const Entity& target, const Record& r) {
  opts_.trace(target.name(), r);
}

}  // namespace snet
