#include "snet/simcheck.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "snet/network.hpp"
#include "snet/value.hpp"

namespace snet::simcheck {

namespace {

using Sim = snetsac::runtime::SimExecutor;

Record int_rec(int v) {
  Record r;
  r.set_field(field_label("x"), make_value(v));
  return r;
}

int x_of(const Record& r) { return value_as<int>(r.field(field_label("x"))); }

Net ident(const std::string& name) {
  return box(name, "(x) -> (x)", [](const BoxInput& in, BoxOutput& out) {
    out.out(1, in.field("x"));
  });
}

/// `(x) -> (x)` box emitting \p n copies per input — the producer whose
/// mid-quantum emissions overrun a bounded downstream inbox.
Net fanout(const std::string& name, int n) {
  return box(name, "(x) -> (x)", [n](const BoxInput& in, BoxOutput& out) {
    for (int k = 0; k < n; ++k) {
      out.out(1, in.field("x"));
    }
  });
}

/// Scenario expectation failure: routed through invariant_failure so the
/// driver reports wrong *outputs* exactly like violated conservation laws
/// (same exception, same seed-carrying trace from the caller).
void expect(bool ok, const std::string& what) {
  if (!ok) {
    snetsac::runtime::invariant_failure("scenario expectation", what);
  }
}

/// NetworkStats::suspensions of the scenario network on this thread,
/// sampled as its hook is torn down; run_scenario reports it.
thread_local std::uint64_t t_suspensions = 0;

/// Re-checks the network's conservation laws at every yield point (after
/// every task the SimExecutor runs), and clears the hook before the
/// Network it captures is destroyed. Declare right after the Network and
/// before any Session so unwinding tears down in a safe order.
class HookGuard {
 public:
  HookGuard(Sim& sim, const Network& net) : sim_(sim), net_(net) {
    sim_.set_after_task([&net] { net.check_protocol_invariants(false); });
  }
  ~HookGuard() {
    sim_.set_after_task(nullptr);
    t_suspensions = net_.stats().suspensions;
  }

  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;

 private:
  Sim& sim_;
  const Network& net_;
};

Options sim_options(Sim& sim, unsigned quantum) {
  Options o;
  // `workers` is the scheduler's concurrency *window*, not a thread
  // count: execution is still serialised onto this thread, but with a
  // window of 4 several entity quanta are pending in the SimExecutor at
  // once — the branching factor the strategies reorder. A window of 1
  // would collapse every schedule to the same sequence.
  o.workers = 4;
  o.quantum = quantum;
  o.executor = &sim;
  // The scenarios use deliberately adversarial configs (caps the config
  // lint rightly flags, e.g. a det_capacity a synchrocell can never fire
  // under); re-verifying the topology thousands of times per sweep would
  // only spam the report.
  o.verify = VerifyMode::Off;
  return o;
}

// ------------------------------------------------------------- scenarios

/// A fanout box overruns a bounded downstream inbox mid-quantum: the
/// producer must stall at a message boundary, park, and resume when the
/// consumer drains — under every interleaving, with nothing lost or
/// duplicated.
void scenario_stall_mid_batch(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/4);
  o.inbox_capacity = 2;
  Network net(fanout("fan", 4) >> ident("sink"), std::move(o));
  const HookGuard hook(sim, net);
  Session s = net.open_session();
  constexpr int kRecords = 6;
  for (int i = 0; i < kRecords; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  const auto out = s.output().collect();
  expect(out.size() == kRecords * 4U,
         "stall-mid-batch lost records: got " + std::to_string(out.size()) +
             " of " + std::to_string(kRecords * 4));
  net.wait();
  net.check_protocol_invariants(true);
}

/// A fused segment `filter >> fanout box >> filter` feeds a box whose
/// inbox holds 2: the inline stages' emissions land in the head's buffers,
/// so the *head* must stall with them, park, and resume when the sink
/// drains — the fused fan-out of one head record is the overshoot.
void scenario_fused_stall(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/4);
  o.inbox_capacity = 2;
  Network net(filter("{x} -> {x}") >> fanout("fan", 3) >> filter("{x} -> {x}") >>
                  ident("sink"),
              std::move(o));
  const HookGuard hook(sim, net);
  Session s = net.open_session();
  constexpr int kRecords = 6;
  for (int i = 0; i < kRecords; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  const auto out = s.output().collect();
  expect(out.size() == kRecords * 3U,
         "fused-stall lost records: got " + std::to_string(out.size()) + " of " +
             std::to_string(kRecords * 3));
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect(x_of(out[i]) == static_cast<int>(i / 3),
           "fused-stall reordered the stream at position " + std::to_string(i));
  }
  net.wait();
  net.check_protocol_invariants(true);
}

/// Per-session FIFO across the output credit bound: every inject passes
/// the gate while the account is still empty, so the account fills with
/// records already in flight. The output entity buffers them past the
/// bound, and the client's pops must return the whole stream in injection
/// order, each record exactly once. Its name, deferred-flush, is part of
/// the schedcheck CLI and of the pinned replay seeds.
void scenario_deferred_flush(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/1);
  o.output_capacity = 2;
  Network net(ident("id"), std::move(o));
  const HookGuard hook(sim, net);
  Session s = net.open_session();
  constexpr int kRecords = 6;
  // Nothing runs until a blocking call pumps, so every inject passes the
  // credit gate while the account is still empty — the records then cross
  // the bound *inside* the network, past the gate.
  for (int i = 0; i < kRecords; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  for (int i = 0; i < kRecords; ++i) {
    const auto r = s.output().next();
    expect(r.has_value(), "output ended after " + std::to_string(i) + " of " +
                              std::to_string(kRecords) + " records");
    expect(x_of(*r) == i,
           "output over the credit bound reordered the stream: got " +
               std::to_string(x_of(*r)) + " at position " + std::to_string(i));
  }
  expect(!s.output().next().has_value(), "records duplicated past the close");
  net.wait();
  net.check_protocol_invariants(true);
}

/// A deterministic parallel region whose branches the strategy reorders
/// freely: the collector buffers out-of-order groups past the per-session
/// cap, spills, and throttles the session's admission — and the released
/// stream must still be exactly the injection order.
void scenario_det_spill(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/1);
  o.det_capacity = 2;
  o.det_overflow = OverflowPolicy::Spill;
  Network net(parallel_det(ident("L"), ident("R")), std::move(o));
  const HookGuard hook(sim, net);
  Session s = net.open_session();
  constexpr int kRecords = 10;
  for (int i = 0; i < kRecords; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  const auto out = s.output().collect();
  expect(out.size() == static_cast<std::size_t>(kRecords),
         "det spill lost records: got " + std::to_string(out.size()));
  for (int i = 0; i < kRecords; ++i) {
    const int got = x_of(out[static_cast<std::size_t>(i)]);
    expect(got == i, "det spill broke ordering: got " + std::to_string(got) +
                         " at position " + std::to_string(i));
  }
  net.wait();
  net.check_protocol_invariants(true);
}

/// FailFast overflow in a synchrocell: the second *stored* record blows
/// the cap-of-one, the offending session must error (and only it), the
/// evicted slot's accounting must unwind, and the network must quiesce.
void scenario_sync_failfast(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/1);
  o.det_capacity = 1;
  o.det_overflow = OverflowPolicy::FailFast;
  Network net(sync({"{a}", "{b}", "{c}"}), std::move(o));
  const HookGuard hook(sim, net);
  Session hog = net.open_session();
  Session bystander = net.open_session();
  Record ra;
  ra.set_field(field_label("a"), make_value(1));
  hog.input().inject(std::move(ra));
  Record rb;
  rb.set_field(field_label("b"), make_value(2));
  hog.input().inject(std::move(rb));
  hog.close();
  bool overflowed = false;
  try {
    hog.output().collect();
  } catch (const SessionOverflowError&) {
    overflowed = true;
  }
  expect(overflowed, "FailFast cap never raised SessionOverflowError");
  // The bystander's record carries none of a/b/c, so the cell is the
  // identity for it — and it must be untouched by the hog's failure.
  bystander.input().inject(int_rec(7));
  bystander.close();
  const auto out = bystander.output().collect();
  expect(out.size() == 1 && x_of(out[0]) == 7,
         "innocent session damaged by another session's fail-fast");
  net.wait();
  net.check_protocol_invariants(true);
}

/// A hot session floods the bounded staging queue while a heavier meek
/// session submits a finite batch: DRR must keep both streams complete
/// and per-session ordered, refusals must leave records intact, and the
/// throttle/credit wakes must never be lost.
void scenario_drr_flood(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/1);
  o.inbox_capacity = 2;  // small staging queues: the DRR arbitrates
  Network net(ident("grind"), std::move(o));
  const HookGuard hook(sim, net);
  Session hot = net.open_session();  // weight 1
  SessionOptions heavy;
  heavy.weight = 4;
  Session meek = net.open_session(heavy);
  constexpr int kHot = 16;
  constexpr int kMeek = 6;
  int hot_in = 0;
  std::size_t hot_out = 0;
  int meek_in = 0;
  while (hot_in < kHot) {
    Record r = int_rec(hot_in);
    if (hot.input().try_inject(r)) {
      ++hot_in;
      if (meek_in < kMeek && hot_in % 3 == 0) {
        meek.input().inject(int_rec(1000 + meek_in));
        ++meek_in;
      }
      continue;
    }
    // Refused: the record must be intact, and something must be in
    // flight — otherwise the refusal itself is a lost-credit bug.
    expect(x_of(r) == hot_in, "try_inject damaged the refused record");
    expect(hot_out < static_cast<std::size_t>(hot_in),
           "try_inject refused with nothing in flight");
    expect(hot.output().next().has_value(), "flood output ended early");
    ++hot_out;
  }
  while (meek_in < kMeek) {
    meek.input().inject(int_rec(1000 + meek_in));
    ++meek_in;
  }
  hot.close();
  meek.close();
  hot_out += hot.output().collect().size();
  expect(hot_out == static_cast<std::size_t>(kHot),
         "flood session lost records: got " +
                              std::to_string(hot_out) + " of " +
                              std::to_string(kHot));
  const auto meek_out = meek.output().collect();
  expect(meek_out.size() == static_cast<std::size_t>(kMeek),
         "meek session lost records under flood");
  for (int i = 0; i < kMeek; ++i) {
    expect(x_of(meek_out[static_cast<std::size_t>(i)]) == 1000 + i,
           "DRR reordered the meek session's stream");
  }
  net.wait();
  net.check_protocol_invariants(true);
}

/// Routers resolved by a producer while the replica they pick does not
/// exist yet: a fan-out box emits, per input, a run of records sharing a
/// fresh <k>, through `split(ident, <k>)` into a star whose stages each
/// split by <k> again — so every first record of a <k> makes its producer
/// instantiate a split replica (and, at each depth, a star stage) inside
/// its own quantum, while inbox cap 1 stalls it on the replica it just
/// built. Every record must come out exactly once, and each <k>'s run in
/// emission order (one producer per <k>: the per-(producer, <k>) FIFO).
void scenario_routed_instantiate(Sim& sim) {
  Options o = sim_options(sim, /*quantum=*/2);
  o.inbox_capacity = 1;
  constexpr int kInputs = 3;
  constexpr int kRun = 3;     // records per <k>
  constexpr int kDepth = 2;   // star stages each record passes
  const Net fan = box("fan", "(x) -> (x, <k>, <j>, <n>)",
                      [](const BoxInput& in, BoxOutput& out) {
                        for (int j = 0; j < kRun; ++j) {
                          out.out(1, in.field("x"), std::int64_t{in.get<int>("x")},
                                  std::int64_t{j}, std::int64_t{kDepth});
                        }
                      });
  const Net down = box("down", "(<n>) -> (<n>) | (<done>)",
                       [](const BoxInput& in, BoxOutput& out) {
                         const std::int64_t n = in.tag("n");
                         if (n > 1) {
                           out.out(1, n - 1);
                         } else {
                           out.out(2, std::int64_t{1});
                         }
                       });
  Network net(fan >> split(ident("id"), "k") >> star(split(down, "k"), "{<done>}"),
              std::move(o));
  const HookGuard hook(sim, net);
  Session s = net.open_session();
  for (int i = 0; i < kInputs; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  const auto out = s.output().collect();
  expect(out.size() == static_cast<std::size_t>(kInputs * kRun),
         "routed-instantiate lost or duplicated records: got " +
             std::to_string(out.size()) + " of " + std::to_string(kInputs * kRun));
  std::vector<int> next_j(kInputs, 0);
  for (const Record& r : out) {
    const auto k = static_cast<std::size_t>(r.tag(tag_label("k")));
    expect(k < next_j.size() && x_of(r) == static_cast<int>(k),
           "routed-instantiate delivered a foreign record");
    expect(r.tag(tag_label("j")) == next_j[k],
           "routed-instantiate reordered <k>=" + std::to_string(k) + ": got <j>=" +
               std::to_string(r.tag(tag_label("j"))) + ", expected " +
               std::to_string(next_j[k]));
    ++next_j[k];
  }
  net.wait();
  net.check_protocol_invariants(true);
}

struct Scenario {
  const char* name;
  void (*fn)(Sim&);
};

constexpr Scenario kScenarios[] = {
    {"stall-mid-batch", scenario_stall_mid_batch},
    {"deferred-flush", scenario_deferred_flush},
    {"det-spill", scenario_det_spill},
    {"sync-failfast", scenario_sync_failfast},
    {"drr-flood", scenario_drr_flood},
    {"fused-stall", scenario_fused_stall},
    {"routed-instantiate", scenario_routed_instantiate},
};

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Scenario& s : kScenarios) {
      v.emplace_back(s.name);
    }
    return v;
  }();
  return names;
}

RunResult run_scenario(const std::string& name,
                       const snetsac::runtime::SimExecutor::Options& opts) {
  for (const Scenario& s : kScenarios) {
    if (name == s.name) {
      Sim sim(opts);
      t_suspensions = 0;
      try {
        s.fn(sim);
      } catch (const snetsac::runtime::ProtocolInvariantError& e) {
        // Violations raised outside the executor (a conservation check, a
        // wrong scenario output) don't carry the decision trace the wedge
        // path embeds — attach it so every failure is replayable.
        std::string msg = e.what();
        if (msg.find("schedule trace") == std::string::npos) {
          msg += "\n" + sim.format_trace();
        }
        throw snetsac::runtime::ProtocolInvariantError(msg);
      }
      // Teardown discipline: a task still pending after ~Network would
      // reference a dead network — running it later is use-after-free,
      // so surface the leak as a violation instead.
      expect(sim.pending() == 0,
             "tasks left pending after network teardown");
      RunResult r;
      r.steps = sim.steps_executed();
      r.choices = sim.choice_log();
      r.option_counts = sim.option_counts();
      r.suspensions = t_suspensions;
      return r;
    }
  }
  std::ostringstream os;
  os << "unknown scenario '" << name << "' (have:";
  for (const Scenario& s : kScenarios) {
    os << ' ' << s.name;
  }
  os << ')';
  throw std::invalid_argument(os.str());
}

}  // namespace snet::simcheck
