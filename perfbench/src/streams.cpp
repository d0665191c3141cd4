/// hop_stream and tenant_det: tiny integer records through the hop-heavy
/// topology of hops.hpp.
///
/// hop_stream — why: the boxes do one multiply-add, so every microsecond
/// is inbox push/drain, scheduling quanta, route decisions and copy plans,
/// and sacpp does nothing. Topology fusion, routing and batching changes
/// show here and should show nothing on fig2_puzzles. One session, a
/// bounded window of records in flight, bounded inboxes, no det region
/// and no output credit, so injects take the DRR bypass.
///
/// tenant_det — why: the same entity path, but three sessions with DRR
/// weights 1:2:4 compete at the input dispatcher, a det split buffers
/// records to restore order, and det_capacity sits below the steady det
/// buffering so the wire layer writes and reads spill frames. A hop-path
/// gain that costs det, spill or fairness shows here. The client
/// round-robins try_inject over the sessions to keep every staging queue
/// full, and outputs arrive through on_output. Per-session output credit
/// is not exercised: one client thread cannot block on several
/// OutputPorts, and on_output disables the credit account.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "hops.hpp"
#include "puzzles.hpp"
#include "snet/wire.hpp"
#include "stats.hpp"
#include "sysinfo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPool = std::size_t{1} << 16;  // distinct inputs, cycled

// ------------------------------------------------------------- shared

bool verdict(const std::vector<HopInput>& in, std::size_t index, const snet::Record& r) {
  HopOutput got;
  return hop_read(r, got) && got == hop_expected(in[index % kPool]);
}

/// Order-independent digest of one output, for the traced-vs-untraced
/// comparison.
std::uint64_t digest(const snet::Record& r) {
  HopOutput o;
  if (!hop_read(r, o)) {
    return 0;
  }
  std::uint64_t h = mix64(static_cast<std::uint64_t>(o.x));
  h = mix64(h ^ static_cast<std::uint64_t>(o.t));
  h = mix64(h ^ static_cast<std::uint64_t>(o.v));
  return mix64(h ^ static_cast<std::uint64_t>(o.w));
}

/// Output digests per item of the untraced phase; the traced phase must
/// reproduce them.
struct DigestMemo {
  std::vector<std::uint64_t> by_item;
  bool record = true;
  std::size_t mismatches = 0;
  void see(std::size_t item, std::uint64_t d) {
    if (record) {
      if (item >= by_item.size()) {
        by_item.resize(item + 1, 0);
      }
      by_item[item] = d;
    } else if (item < by_item.size() && by_item[item] != 0 && by_item[item] != d) {
      ++mismatches;
    }
  }
};

/// Records of the sequential program (HopSequential) timed after each
/// window of an untraced phase: the window's coordination_overhead
/// reference, measured in the same machine state as the window.
constexpr std::size_t kRefBurst = 2048;

/// Runs a reference burst for the window just closed, excluding its time
/// from the phase. The caller has drained the network first, so the burst
/// does not share the machine with pool threads still at work. \p next cycles through the inputs; outputs that differ
/// from the checker's expectation count into \p wrong.
void reference_burst(const HopSequential& reference, const std::vector<HopInput>& in,
                     std::size_t& next, std::size_t& wrong, Phase& phase, PhaseClock& clock) {
  const double t0 = wall_s();
  for (std::size_t k = 0; k < kRefBurst; ++k, ++next) {
    const std::size_t i = next % kPool;
    wrong += verdict(in, i, reference.run(in[i], static_cast<std::int64_t>(i))) ? 0 : 1;
  }
  Window& w = phase.windows.back();
  w.ref_s = wall_s() - t0;
  w.ref_items = kRefBurst;
  w.ref_work = kRefBurst;
  clock.resume();
}

/// Runs \p n set-ups; \p build constructs a network, stores the time it
/// was constructed, and warms it up. Returns setup_s, the calm median of
/// the set-ups' durations, and appends each construction's to
/// \p construct_ms.
template <class Build>
double time_setups(int n, Build build, std::vector<double>& construct_ms) {
  std::vector<double> total;
  std::vector<double> steal;
  for (int i = 0; i < n; ++i) {
    const MachineTicks ticks = machine_ticks();
    const double t0 = wall_s();
    double constructed = 0;
    build(constructed);
    construct_ms.push_back((constructed - t0) * 1e3);
    total.push_back(wall_s() - t0);
    steal.push_back(steal_share(ticks, machine_ticks()));
  }
  return calm_median(total, steal);
}

// --------------------------------------------------------- hop_stream

constexpr std::size_t kHopWindow = 256;  // records in flight
constexpr std::size_t kHopInbox = 64;    // entity inbox / staging bound
constexpr std::size_t kHopWarm = 8192;   // records per warm-up
/// Latency is sampled on every kLatencyEvery-th item, so the benchmark's
/// own bookkeeping stays a fixed, small share of the process's memory.
constexpr std::int64_t kLatencyEvery = 16;
constexpr std::size_t kLatencyRing = 4096;  // sampled items in flight, at most

struct HopClient {
  HopClient(snet::Network& n, const std::vector<HopInput>& inputs, Ledger& l,
            DigestMemo* m = nullptr)
      : net(n), in(inputs), ledger(l), memo(m) {}

  snet::Network& net;
  const std::vector<HopInput>& in;
  Ledger& ledger;
  DigestMemo* memo = nullptr;
  /// Inject times of sampled items in flight: (item, time) by
  /// (item / kLatencyEvery) % kLatencyRing.
  std::vector<std::pair<std::int64_t, double>> injected_at =
      std::vector<std::pair<std::int64_t, double>>(kLatencyRing, {-1, 0.0});
  std::int64_t next_id = 0;
  std::size_t in_flight = 0;
  std::vector<snet::Record> outs;
  /// Set for the untraced phase: reference bursts after each window.
  const HopSequential* reference = nullptr;
  std::size_t reference_next = 0;
  std::size_t reference_wrong = 0;

  void receive(const snet::Record& r, double t, Phase* phase) {
    const std::int64_t id = item_of(r);
    const bool known = id >= 0 && id < next_id;
    ledger.deliver(known ? id : -1, known && verdict(in, static_cast<std::size_t>(id), r));
    if (known) {
      if (memo != nullptr) {
        memo->see(static_cast<std::size_t>(id), digest(r));
      }
      if (phase != nullptr) {
        ++phase->items;
        const auto& [sampled, at] = slot(id);
        if (id % kLatencyEvery == 0 && sampled == id) {
          phase->latency_ms.push_back((t - at) * 1e3);
        }
      }
    }
    --in_flight;
  }

  std::pair<std::int64_t, double>& slot(std::int64_t id) {
    return injected_at[static_cast<std::size_t>(id / kLatencyEvery) % kLatencyRing];
  }

  /// Closed loop until \p until (wall clock) or until \p max_items were
  /// injected; with \p settle, waits for every injected record first.
  void pump(double until, std::int64_t max_items, bool settle, Phase* phase,
            PhaseClock* clock) {
    for (;;) {
      const bool stop = wall_s() >= until || next_id >= max_items;
      if (stop && (!settle || in_flight == 0)) {
        return;
      }
      while (!stop && in_flight < kHopWindow && next_id < max_items) {
        snet::Record r = hop_record(in[static_cast<std::size_t>(next_id) % kPool], next_id);
        if (next_id % kLatencyEvery == 0) {
          slot(next_id) = {next_id, wall_s()};
        }
        ledger.expect(static_cast<std::size_t>(next_id) + 1);
        {
          const Span span(Layer::Ports, "port.inject", next_id);
          net.input().inject(std::move(r));
        }
        ++next_id;
        ++in_flight;
      }
      outs.clear();
      {
        const Span span(Layer::Ports, "port.next_span", -1);
        if (net.output().next_span(outs) == 0) {
          return;
        }
      }
      const double t = wall_s();
      for (const snet::Record& r : outs) {
        receive(r, t, phase);
      }
      if (clock != nullptr && clock->tick() && reference != nullptr) {
        while (in_flight > 0) {
          outs.clear();
          if (net.output().next_span(outs) == 0) {
            break;
          }
          const double now = wall_s();
          for (const snet::Record& r : outs) {
            receive(r, now, phase);
          }
        }
        reference_burst(*reference, in, reference_next, reference_wrong, *phase, *clock);
      }
    }
  }

  /// Closes the session and checks what was still in flight.
  void drain() {
    for (const snet::Record& r : net.output().collect()) {
      receive(r, 0, nullptr);
    }
    net.wait();
  }
};

}  // namespace

Outcome run_hop_stream(const RunConfig& cfg) {
  Outcome out;
  const double gen0 = wall_s();
  const std::vector<HopInput> in = hop_inputs(cfg.seed, kPool);
  const double inputs_s = wall_s() - gen0;
  const HopSequential reference;

  snet::Options opts;
  opts.workers = cfg.pool;
  opts.inbox_capacity = kHopInbox;
  out.options = options_json(opts);
  out.facts.emplace_back("workload", json_string(
      "inputs=" + std::to_string(kPool) + " window=" + std::to_string(kHopWindow) +
      " warmup=" + std::to_string(kHopWarm) + " branches=" + std::to_string(kHopBranches) +
      " split_width=" + std::to_string(kHopSplitWidth)));

  const snet::Net topology = hop_net(/*det=*/false);
  const double verify_ms = median_verify_ms(topology, cfg.setups);
  std::unique_ptr<snet::Network> net;
  std::unique_ptr<HopClient> client;
  Ledger warm;
  std::vector<double> construct_ms;
  const double setup_s =
      time_setups(cfg.setups, [&](double& constructed) {
        if (client) {
          client->drain();
          account(out, warm, "warm-up");
          client.reset();
        }
        net = std::make_unique<snet::Network>(topology, opts);
        constructed = wall_s();
        warm = Ledger();
        client = std::make_unique<HopClient>(*net, in, warm);
        client->pump(1e300, kHopWarm, /*settle=*/true, nullptr, nullptr);
      }, construct_ms);
  account(out, warm, "warm-up");

  const double budget = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  Phase u;
  Ledger ledger;
  DigestMemo memo;
  {
    // The last set-up network, its warm-up settled, runs the phase; ids
    // restart so the phase's ledger covers exactly its own items.
    HopClient& c = *client;
    HopClient phase_client(c.net, in, ledger, cfg.trace ? &memo : nullptr);
    phase_client.reference = &reference;
    PhaseClock clock(u, c.net, /*per_thread=*/false, budget);
    phase_client.pump(wall_s() + budget, INT64_MAX, /*settle=*/false, &u, &clock);
    clock.stop();
    phase_client.drain();
    if (phase_client.reference_wrong > 0) {
      out.correct = false;
      out.failure += "sequential program: " + std::to_string(phase_client.reference_wrong) +
                     " wrong; ";
    }
  }
  client.reset();
  net.reset();
  account(out, ledger, "untraced");

  if (!cfg.trace) {
    end_to_end(u, setup_s, out.metrics, out.facts);
    return out;
  }

  Tracer& tr = tracer();
  tr.register_thread();
  snet::Options topts = opts;
  topts.trace = tr.delivery_hook(8);
  Phase t;
  Ledger traced_warm;
  Ledger traced_ledger;
  memo.record = false;
  {
    snet::Network tnet(tr.wrap_boxes(topology), topts);
    HopClient wc(tnet, in, traced_warm);
    wc.pump(1e300, kHopWarm, /*settle=*/true, nullptr, nullptr);
    HopClient pc(tnet, in, traced_ledger, &memo);
    tr.set_on(true);
    PhaseClock clock(t, tnet, /*per_thread=*/true, budget);
    pc.pump(wall_s() + budget, INT64_MAX, /*settle=*/false, &t, &clock);
    clock.stop();
    tr.set_on(false);
    pc.drain();
  }
  account(out, traced_warm, "traced warm-up");
  account(out, traced_ledger, "traced");
  if (memo.mismatches > 0) {
    out.correct = false;
    out.failure += "traced outputs differ from untraced: " + std::to_string(memo.mismatches) + "; ";
  }
  const TraceTotals totals = tr.totals();
  LayerInputs li;
  li.untraced = &u;
  li.traced = &t;
  li.totals = &totals;
  li.client_tid = current_tid();
  li.construct_ms = median(construct_ms);
  li.verify_ms = verify_ms;
  li.inputs_s = inputs_s;
  per_layer(li, out);
  return out;
}

// --------------------------------------------------------- tenant_det

namespace {

constexpr unsigned kWeights[] = {1, 2, 4};
constexpr std::size_t kTenants = std::size(kWeights);
constexpr std::size_t kTenantInbox = 32;   // entity inbox / staging bound
constexpr std::size_t kDetCapacity = 128;  // per-session det buffering cap
constexpr std::size_t kTenantWarm = 2048;  // records per session per warm-up
constexpr std::size_t kWireSample = 4096;  // records timed through WireWriter/Reader
constexpr int kSessionShift = 40;          // item id = session << 40 | seq

std::int64_t tenant_item(std::size_t session, std::int64_t seq) {
  return (static_cast<std::int64_t>(session) << kSessionShift) | seq;
}

std::size_t tenant_input(std::size_t session, std::int64_t seq) {
  return static_cast<std::size_t>(seq) * kTenants + session;
}

/// One session: the client side (pending record, inject times) and the
/// on_output side (deliveries, det-order check) — the latter touched only
/// by the network's serialised output callbacks until the network is
/// quiescent.
struct Tenant {
  struct Delivery {
    std::int64_t seq;
    double t;
    bool ok;
    std::uint64_t digest;
  };
  std::size_t index = 0;
  snet::Session session;
  std::optional<snet::Record> pending;
  std::vector<double> injected_at;  // by seq
  std::mutex mu;
  std::vector<Delivery> deliveries;
  OrderCheck order{kHopBranches};
  std::atomic<std::uint64_t> delivered{0};

  std::int64_t injected() const { return static_cast<std::int64_t>(injected_at.size()); }
};

struct TenantNet {
  std::unique_ptr<snet::Network> net;
  std::vector<std::unique_ptr<Tenant>> tenants;  // released before net

  TenantNet(const snet::Net& topology, const snet::Options& opts,
            const std::vector<HopInput>& in) {
    net = std::make_unique<snet::Network>(topology, opts);
    for (std::size_t s = 0; s < kTenants; ++s) {
      auto t = std::make_unique<Tenant>();
      t->index = s;
      snet::SessionOptions so;
      so.weight = kWeights[s];
      t->session = net->open_session(so);
      Tenant* raw = t.get();
      t->session.output().on_output([raw, &in](snet::Record r) {
        const std::int64_t item = item_of(r);
        const Span span(Layer::Callback, "port.on_output", item);
        const double now = wall_s();
        const std::int64_t seq = item & ((std::int64_t{1} << kSessionShift) - 1);
        const bool mine = item >= 0 && (item >> kSessionShift) ==
                                           static_cast<std::int64_t>(raw->index);
        const std::size_t input = tenant_input(raw->index, seq);
        const bool ok = mine && verdict(in, input, r);
        const std::lock_guard lock(raw->mu);
        const bool ordered =
            mine && raw->order.next(static_cast<std::size_t>(in[input % kPool].branch), seq);
        raw->deliveries.push_back(Tenant::Delivery{mine ? seq : -1, now, ok && ordered, digest(r)});
        raw->delivered.fetch_add(1, std::memory_order_release);
      });
      tenants.push_back(std::move(t));
    }
  }

  /// Round-robin try_inject until \p until or until every session injected
  /// \p per_session records; with \p settle, waits for every output.
  /// Set for the untraced phase: reference bursts after each window.
  const HopSequential* reference = nullptr;
  std::size_t reference_next = 0;
  std::size_t reference_wrong = 0;

  void pump(const std::vector<HopInput>& in, double until, std::int64_t per_session,
            bool settle, Phase* phase, PhaseClock* clock) {
    const std::uint64_t delivered0 = delivered();
    for (;;) {
      bool progress = false;
      bool all_done = true;
      const bool expired = wall_s() >= until;
      for (auto& tp : tenants) {
        Tenant& t = *tp;
        while (!expired && t.injected() < per_session) {
          all_done = false;
          const std::int64_t seq = t.injected();
          if (!t.pending) {
            t.pending = hop_record(in[tenant_input(t.index, seq) % kPool],
                                   tenant_item(t.index, seq));
          }
          const double at = wall_s();
          bool accepted = false;
          {
            const Span span(Layer::Ports, "port.try_inject", tenant_item(t.index, seq));
            accepted = t.session.input().try_inject(*t.pending);
          }
          if (phase != nullptr) {
            ++phase->try_calls;
            phase->try_refused += accepted ? 0 : 1;
          }
          if (!accepted) {
            break;
          }
          t.injected_at.push_back(at);
          t.pending.reset();
          progress = true;
        }
      }
      if (expired || all_done) {
        break;
      }
      if (clock != nullptr) {
        phase->items = delivered() - delivered0;  // tally() recounts exactly later
        if (clock->tick() && reference != nullptr) {
          settle_outputs();
          reference_burst(*reference, in, reference_next, reference_wrong, *phase, *clock);
        }
      }
      if (!progress) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    if (settle) {
      settle_outputs();
    }
  }

  /// Waits until every injected record has been delivered.
  void settle_outputs() {
    for (auto& tp : tenants) {
      while (tp->delivered.load(std::memory_order_acquire) <
             static_cast<std::uint64_t>(tp->injected())) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& tp : tenants) {
      n += tp->delivered.load(std::memory_order_acquire);
    }
    return n;
  }

  /// Closes every session, waits for quiescence, and checks every output.
  /// Returns the number of det-order violations (already counted as wrong
  /// outputs in the ledgers).
  std::size_t finish(std::vector<Ledger>& ledgers, DigestMemo* memo) {
    std::size_t violations = 0;
    for (auto& tp : tenants) {
      tp->session.close();
    }
    net->wait();
    for (auto& tp : tenants) {
      Tenant& t = *tp;
      Ledger& l = ledgers[t.index];
      l.expect(static_cast<std::size_t>(t.injected()));
      const std::lock_guard lock(t.mu);
      for (const Tenant::Delivery& d : t.deliveries) {
        l.deliver(d.seq, d.ok);
        if (memo != nullptr && d.seq >= 0) {
          memo->see(tenant_input(t.index, d.seq), d.digest);
        }
      }
      violations += t.order.violations();
    }
    return violations;
  }
};

/// In-phase deliveries: latency samples (assigned to the phase's windows
/// by delivery time), items, and the weighted share.
double tally(TenantNet& tn, double phase_start, double phase_end, Phase& phase) {
  std::vector<std::pair<double, double>> samples;  // delivery time, latency ms
  std::vector<std::uint64_t> per(kTenants, 0);
  for (auto& tp : tn.tenants) {
    Tenant& t = *tp;
    const std::lock_guard lock(t.mu);
    for (const Tenant::Delivery& d : t.deliveries) {
      if (d.seq < 0 || d.t < phase_start || d.t > phase_end) {
        continue;
      }
      samples.emplace_back(d.t, (d.t - t.injected_at[static_cast<std::size_t>(d.seq)]) * 1e3);
      ++per[t.index];
    }
  }
  std::sort(samples.begin(), samples.end());
  phase.items = samples.size();
  phase.latency_ms.clear();
  std::size_t next = 0;
  for (Window& w : phase.windows) {
    w.latency_begin = phase.latency_ms.size();
    for (; next < samples.size() && samples[next].first <= w.closed_at; ++next) {
      phase.latency_ms.push_back(samples[next].second);
    }
    w.latency_end = phase.latency_ms.size();
  }
  double weights = 0;
  for (const unsigned w : kWeights) {
    weights += w;
  }
  double share_min = 1e300;
  for (std::size_t s = 0; s < kTenants; ++s) {
    const double share = samples.empty() ? 0 : static_cast<double>(per[s]) /
                                                   static_cast<double>(samples.size());
    share_min = std::min(share_min, share / (kWeights[s] / weights));
  }
  return share_min;
}

/// Times WireWriter::record and WireReader::next on the workload's own
/// records (the frames a det-region spill writes and reads back).
bool time_wire(const std::vector<HopInput>& in) {
  std::vector<snet::Record> records;
  for (std::size_t i = 0; i < kWireSample; ++i) {
    records.push_back(hop_record(in[i % kPool], static_cast<std::int64_t>(i)));
  }
  std::stringstream buf;
  {
    snet::wire::WireWriter w(buf);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Span span(Layer::Wire, "wire.encode", static_cast<std::int64_t>(i));
      w.record(records[i]);
    }
    w.finish();
  }
  snet::wire::WireReader r(buf);
  std::size_t same = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::optional<snet::Record> back;
    {
      const Span span(Layer::Wire, "wire.decode", static_cast<std::int64_t>(i));
      back = r.next();
    }
    same += back && item_of(*back) == static_cast<std::int64_t>(i) &&
                    back->get<std::int64_t>("x") == records[i].get<std::int64_t>("x")
                ? 1
                : 0;
  }
  return same == records.size();
}

}  // namespace

Outcome run_tenant_det(const RunConfig& cfg) {
  Outcome out;
  const double gen0 = wall_s();
  const std::vector<HopInput> in = hop_inputs(cfg.seed, kPool);
  const double inputs_s = wall_s() - gen0;
  const HopSequential reference;

  snet::Options opts;
  opts.workers = cfg.pool;
  opts.inbox_capacity = kTenantInbox;
  opts.det_capacity = kDetCapacity;
  opts.det_overflow = snet::OverflowPolicy::Spill;
  opts.spill_to_disk = true;
  opts.spill_dir = cfg.out_dir + "/spill";
  std::filesystem::create_directories(opts.spill_dir);
  out.options = options_json(opts);
  out.facts.emplace_back("workload", json_string(
      "sessions=3 weights=1:2:4 inputs=" + std::to_string(kPool) +
      " warmup_per_session=" + std::to_string(kTenantWarm) +
      " branches=" + std::to_string(kHopBranches) +
      " split_width=" + std::to_string(kHopSplitWidth) + " det_split=1"));

  const snet::Net topology = hop_net(/*det=*/true);
  const double verify_ms = median_verify_ms(topology, cfg.setups);
  std::unique_ptr<TenantNet> live;
  std::vector<Ledger> warm(kTenants);
  std::vector<double> construct_ms;
  const double setup_s =
      time_setups(cfg.setups, [&](double& constructed) {
        if (live) {
          live->finish(warm, nullptr);
          for (const Ledger& l : warm) {
            account(out, l, "warm-up");
          }
          live.reset();
        }
        warm.assign(kTenants, Ledger());
        live = std::make_unique<TenantNet>(topology, opts, in);
        constructed = wall_s();
        live->pump(in, 1e300, static_cast<std::int64_t>(kTenantWarm), /*settle=*/true, nullptr,
                   nullptr);
      }, construct_ms);

  const double budget = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  Phase u;
  std::vector<Ledger> ledgers(kTenants);
  DigestMemo memo;
  double share_min = 0;
  {
    // The phase continues the last set-up's sessions: their warm-up
    // records are settled, so phase outputs are the ones after them.
    TenantNet& tn = *live;
    const double start = wall_s();
    tn.reference = &reference;
    PhaseClock clock(u, *tn.net, /*per_thread=*/false, budget);
    tn.pump(in, start + budget, INT64_MAX, /*settle=*/false, &u, &clock);
    if (tn.reference_wrong > 0) {
      out.correct = false;
      out.failure += "sequential program: " + std::to_string(tn.reference_wrong) + " wrong; ";
    }
    clock.stop();
    const double end = start + u.wall_s;
    tn.finish(ledgers, &memo);
    share_min = tally(tn, start, end, u);
  }
  live.reset();
  for (std::size_t s = 0; s < kTenants; ++s) {
    account(out, ledgers[s], "session " + std::to_string(s));
  }

  if (!cfg.trace) {
    end_to_end(u, setup_s, out.metrics, out.facts);
    out.metrics.set("weighted_share_min", share_min, "ratio");
    return out;
  }

  Tracer& tr = tracer();
  tr.register_thread();
  snet::Options topts = opts;
  topts.trace = tr.delivery_hook(8);
  Phase t;
  std::vector<Ledger> traced(kTenants);
  memo.record = false;
  {
    TenantNet tn(tr.wrap_boxes(topology), topts, in);
    tn.pump(in, 1e300, static_cast<std::int64_t>(kTenantWarm), /*settle=*/true, nullptr,
            nullptr);
    tr.set_on(true);
    const double start = wall_s();
    PhaseClock clock(t, *tn.net, /*per_thread=*/true, budget);
    tn.pump(in, start + budget, INT64_MAX, /*settle=*/false, &t, &clock);
    clock.stop();
    tr.set_on(false);
    tn.finish(traced, &memo);
    tally(tn, start, start + t.wall_s, t);
  }
  for (std::size_t s = 0; s < kTenants; ++s) {
    account(out, traced[s], "traced session " + std::to_string(s));
  }
  if (memo.mismatches > 0) {
    out.correct = false;
    out.failure += "traced outputs differ from untraced: " + std::to_string(memo.mismatches) + "; ";
  }
  tr.set_on(true);
  const bool wire_ok = time_wire(in);
  tr.set_on(false);
  if (!wire_ok) {
    out.correct = false;
    out.failure += "wire round trip changed records; ";
  }

  const TraceTotals totals = tr.totals();
  LayerInputs li;
  li.untraced = &u;
  li.traced = &t;
  li.totals = &totals;
  li.client_tid = current_tid();
  li.construct_ms = median(construct_ms);
  li.verify_ms = verify_ms;
  li.inputs_s = inputs_s;
  per_layer(li, out);
  return out;
}

}  // namespace perfbench
