#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "snet/verify.hpp"
#include "stats.hpp"
#include "sysinfo.hpp"

namespace perfbench {

namespace {

/// The layer table must account for the process CPU of the traced phase
/// to within this share.
constexpr double kLayerSumTolerance = 0.05;
/// Latency samples per chunk of the p99 (each chunk's p99 then has at
/// least ten samples beyond it).
constexpr std::size_t kTailChunk = 1000;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Box names with per-layer metrics on every workload.
constexpr const char* kBoxNames[] = {"computeOpts", "solveOneLevel", "step"};

}  // namespace


Counters counters(const snet::NetworkStats& s) {
  Counters c;
  c.quanta = s.quanta;
  c.steals = s.steals;
  c.suspensions = s.suspensions;
  c.injected = s.injected;
  c.spill_bytes = s.spill_bytes;
  for (const auto& e : s.entities) {
    c.records_in += e.records_in;
  }
  for (const auto& ss : s.session_stats) {
    c.forwarded += ss.forwarded;
    c.turns += ss.dispatch_turns;
    c.spilled += ss.spilled;
  }
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.quanta = a.quanta - b.quanta;
  d.steals = a.steals - b.steals;
  d.suspensions = a.suspensions - b.suspensions;
  d.records_in = a.records_in - b.records_in;
  d.injected = a.injected - b.injected;
  d.forwarded = a.forwarded - b.forwarded;
  d.turns = a.turns - b.turns;
  d.spilled = a.spilled - b.spilled;
  d.spill_bytes = a.spill_bytes - b.spill_bytes;
  return d;
}

std::size_t replica_boxes(const snet::NetworkStats& s) {
  std::size_t n = 0;
  for (const auto& e : s.entities) {
    const bool replicated = e.name.find('[') != std::string::npos ||
                            e.name.find("/rep") != std::string::npos;
    n += replicated && e.name.find("box:") != std::string::npos ? 1 : 0;
  }
  return n;
}

PhaseClock::PhaseClock(Phase& phase, snet::Network& net, bool per_thread, double budget_s)
    : phase_(phase),
      net_(net),
      per_thread_(per_thread),
      window_s_(budget_s / kWindows),
      c0_(counters(net.stats())) {
  if (per_thread_) {
    phase_.threads_before = thread_cpu_ns();
  }
  window_ticks0_ = machine_ticks();
  cpu0_ = window_cpu0_ = process_cpu_s();
  wall0_ = window_wall0_ = wall_s();
}

void PhaseClock::close_window(double now) {
  const double cpu = process_cpu_s();
  const MachineTicks ticks = machine_ticks();
  phase_.windows.push_back(Window{.wall_s = now - window_wall0_,
                                  .cpu_s = cpu - window_cpu0_,
                                  .items = phase_.items - window_items0_,
                                  .steal = steal_share(window_ticks0_, ticks),
                                  .latency_begin = window_latency0_,
                                  .latency_end = phase_.latency_ms.size(),
                                  .closed_at = now});
  window_wall0_ = now;
  window_cpu0_ = cpu;
  window_ticks0_ = ticks;
  window_items0_ = phase_.items;
  window_latency0_ = phase_.latency_ms.size();
}

bool PhaseClock::tick() {
  const double now = wall_s();
  if (now - window_wall0_ < window_s_) {
    return false;
  }
  close_window(now);
  return true;
}

void PhaseClock::resume() {
  const double now = wall_s();
  const double cpu = process_cpu_s();
  const double paused = now - window_wall0_;
  wall0_ += paused;  // the phase's own wall and CPU totals skip the pause too
  cpu0_ += cpu - window_cpu0_;
  window_wall0_ = now;
  window_cpu0_ = cpu;
  window_ticks0_ = machine_ticks();
  window_items0_ = phase_.items;  // items and samples of the pause are not
  window_latency0_ = phase_.latency_ms.size();  // the next window's
}

void PhaseClock::stop() {
  const double now = wall_s();
  // A last stub of a window would be noise, not a sample.
  if (now - window_wall0_ >= window_s_ / 2 || phase_.windows.empty()) {
    close_window(now);
  }
  phase_.wall_s = now - wall0_;
  phase_.cpu_s = process_cpu_s() - cpu0_;
  if (per_thread_) {
    phase_.threads_after = thread_cpu_ns();
  }
  finish_counters(phase_, net_, c0_);
}

void finish_counters(Phase& phase, snet::Network& net, const Counters& c0) {
  const snet::NetworkStats s = net.stats();
  phase.delta = counters(s) - c0;
  phase.det_buffered_peak = s.det_buffered_peak;
  phase.entities = s.entity_count();
  phase.replicas = replica_boxes(s);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries.push_back(Entry{name, value, unit});
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void account(Outcome& out, const Ledger& ledger, const std::string& phase) {
  out.attempted += ledger.attempted();
  out.failed += ledger.failed();
  if (!ledger.ok()) {
    out.correct = false;
    out.failure += phase + ": " + ledger.summary() + "; ";
  }
}

void end_to_end(const Phase& phase, double setup_s, Metrics& m, Facts& facts) {
  std::vector<double> steal;
  for (const Window& w : phase.windows) {
    steal.push_back(w.steal);
  }
  const std::vector<std::size_t> order = calm(steal);

  std::vector<double> rates;
  std::vector<double> cpu_us;
  std::vector<double> overhead;
  std::vector<double> latency_ms;
  for (const std::size_t i : order) {
    const Window& w = phase.windows[i];
    if (w.items > 0) {
      rates.push_back(static_cast<double>(w.items) / w.wall_s);
      cpu_us.push_back(w.cpu_s * 1e6 / static_cast<double>(w.items));
      if (w.ref_items > 0) {
        overhead.push_back((w.wall_s / static_cast<double>(w.items)) /
                           (w.ref_s / static_cast<double>(w.ref_items)));
      }
    }
    latency_ms.insert(latency_ms.end(),
                      phase.latency_ms.begin() + static_cast<std::ptrdiff_t>(w.latency_begin),
                      phase.latency_ms.begin() + static_cast<std::ptrdiff_t>(w.latency_end));
  }
  m.set("setup_s", setup_s, "s");
  m.set("items_per_s", median(rates), "1/s");
  m.set("latency_p50_ms", median(latency_ms), "ms");
  const auto tail = chunked_tail(latency_ms, 99, kTailChunk, kWindows);
  m.set("latency_p99_ms", tail ? tail->value : 0, "ms");
  m.set("cpu_us_per_item", median(cpu_us), "us");
  m.set("coordination_overhead", median(overhead), "ratio");

  auto list = [](const std::vector<Window>& ws, auto field) {
    std::string out = "[";
    for (const Window& w : ws) {
      out += json_number(field(w)) + ",";
    }
    if (out.size() > 1) {
      out.pop_back();
    }
    return out + "]";
  };
  facts.emplace_back("latency.samples", json_number(static_cast<double>(latency_ms.size())));
  facts.emplace_back("latency.tail_percentile", json_number(tail ? tail->percentile : 0));
  facts.emplace_back("latency.tail_beyond_per_chunk",
                     json_number(tail ? static_cast<double>(tail->beyond) : 0));
  facts.emplace_back("peak_rss_mb", json_number(peak_rss_mb()));
  facts.emplace_back("phase.items", json_number(static_cast<double>(phase.items)));
  facts.emplace_back("phase.wall_s", json_number(phase.wall_s));
  facts.emplace_back("phase.items_per_s_overall", json_number(phase.items_per_s()));
  facts.emplace_back("phase.windows_used",
                     json_number(static_cast<double>(order.size())) );
  facts.emplace_back("phase.window_rates", list(phase.windows, [](const Window& w) {
                       return w.wall_s > 0 ? static_cast<double>(w.items) / w.wall_s : 0;
                     }));
  facts.emplace_back("phase.window_steal",
                     list(phase.windows, [](const Window& w) { return w.steal; }));
  facts.emplace_back("phase.window_ref_us_per_unit", list(phase.windows, [](const Window& w) {
                       return w.ref_work > 0 ? w.ref_s * 1e6 / static_cast<double>(w.ref_work) : 0;
                     }));
}

void per_layer(const LayerInputs& in, Outcome& out) {
  const Phase& u = *in.untraced;
  const Phase& t = *in.traced;
  const TraceTotals& tt = *in.totals;
  Metrics& m = out.metrics;
  auto by_name = [&tt](const std::string& name) {
    const auto it = tt.by_name.find(name);
    return it == tt.by_name.end() ? LayerTotal{} : it->second;
  };
  const double u_items = static_cast<double>(u.items);
  const double t_items = static_cast<double>(t.items);
  const double cpu_us_per_item = u.per_item(u.cpu_s * 1e6);
  const double box_us_per_item =
      ratio(static_cast<double>(tt.layers[static_cast<std::size_t>(Layer::Box)].self_ns) / 1e3,
            t_items);

  m.set("executor.quanta_per_item", ratio(u.delta.quanta, u_items), "count");
  m.set("executor.records_per_quantum", ratio(u.delta.records_in, u.delta.quanta), "count");
  m.set("executor.steals_per_item", ratio(u.delta.steals, u_items), "count");
  m.set("executor.suspensions_per_item", ratio(u.delta.suspensions, u_items), "count");

  std::uint64_t hops = 0;
  for (const std::uint64_t h : tt.hops) {
    hops += h;
  }
  m.set("hops.per_item", ratio(static_cast<double>(hops), t_items), "count");
  for (const Hop h : {Hop::Box, Hop::Filter, Hop::Parallel, Hop::Split, Hop::Star,
                      Hop::Det, Hop::Output}) {
    m.set(std::string("hops.") + hop_name(h) + "_per_item",
          ratio(static_cast<double>(tt.hops[static_cast<std::size_t>(h)]), t_items), "count");
  }
  const auto gap99 = tail_percentile(tt.gaps_us, 99);
  m.set("hops.gap_us_p50", median(tt.gaps_us), "us");
  m.set("hops.gap_us_p99", gap99 ? gap99->value : 0, "us");
  out.facts.emplace_back("hops.gap_samples", json_number(static_cast<double>(tt.gaps_us.size())));
  out.facts.emplace_back("hops.gap_tail_percentile", json_number(gap99 ? gap99->percentile : 0));

  const double port_ns = static_cast<double>(by_name("port.inject").total_ns +
                                             by_name("port.try_inject").total_ns);
  m.set("ports.inject_block_us_per_item", ratio(port_ns / 1e3, t_items), "us");
  m.set("ports.try_inject_refused_ratio", ratio(t.try_refused, t.try_calls), "ratio");
  m.set("dispatch.turns_per_item", ratio(u.delta.turns, u_items), "count");
  m.set("dispatch.forwarded_ratio", ratio(u.delta.forwarded, u.delta.injected), "ratio");

  m.set("det.buffered_peak", static_cast<double>(u.det_buffered_peak), "count");
  m.set("det.spilled_ratio", ratio(u.delta.spilled, u.delta.injected), "ratio");
  m.set("wire.spill_bytes_per_item", ratio(u.delta.spill_bytes, u_items), "B");
  for (const char* op : {"encode", "decode"}) {
    const LayerTotal w = by_name(std::string("wire.") + op);
    m.set(std::string("wire.") + op + "_us_per_record",
          ratio(static_cast<double>(w.self_ns) / 1e3, static_cast<double>(w.calls)), "us");
  }

  for (const char* box : kBoxNames) {
    const LayerTotal b = by_name(box);
    m.set(std::string("box.") + box + ".calls_per_item", ratio(b.calls, t_items), "count");
    m.set(std::string("box.") + box + ".busy_us_per_item",
          ratio(static_cast<double>(b.self_ns) / 1e3, t_items), "us");
  }
  m.set("box.busy_share", ratio(box_us_per_item, cpu_us_per_item), "ratio");
  m.set("sacpp.seq_ms_per_puzzle", 0, "ms");
  m.set("sacpp.seq_nodes_per_puzzle", 0, "count");
  m.set("coord.cpu_us_per_item", cpu_us_per_item - box_us_per_item, "us");

  m.set("setup.construct_ms", in.construct_ms, "ms");
  m.set("setup.verify_ms", in.verify_ms, "ms");
  m.set("setup.inputs_s", in.inputs_s, "s");
  m.set("unfold.entities", static_cast<double>(u.entities), "count");
  m.set("unfold.replicas", static_cast<double>(u.replicas), "count");
  m.set("trace.overhead", ratio(u.items_per_s(), t.items_per_s()) - 1, "ratio");

  // Layer table: the traced phase's process CPU split by thread, and the
  // pool threads' share split further by span self time.
  std::int64_t client = 0;
  std::int64_t workers = 0;
  std::int64_t other = 0;
  for (const auto& [tid, after] : t.threads_after) {
    const auto before = t.threads_before.find(tid);
    const std::int64_t d = after - (before == t.threads_before.end() ? 0 : before->second);
    if (tid == in.client_tid) {
      client += d;
    } else if (tt.tids.count(tid) != 0) {
      workers += d;
    } else {
      other += d;
    }
  }
  auto self = [&tt](Layer l) {
    return static_cast<double>(tt.layers[static_cast<std::size_t>(l)].self_ns);
  };
  const double coordination =
      static_cast<double>(workers) - self(Layer::Box) - self(Layer::Callback) - self(Layer::Hook);
  const double sum = static_cast<double>(client + workers + other);
  const double process = t.cpu_s * 1e9;
  const double error = ratio(std::fabs(sum - process), process);
  m.set("trace.layer_sum_error", error, "ratio");

  std::ostringstream table;
  auto row = [&](const char* name, double ns, const char* note) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-26s %12.3f  %s\n", name, ratio(ns / 1e3, t_items), note);
    table << buf;
  };
  table << "layer table, traced phase: " << t.items << " items, CPU us per item\n";
  row("client thread", static_cast<double>(client), "inject, output wait, checking");
  row("box bodies", self(Layer::Box), "product BoxFn calls, incl. SaC with-loops");
  row("on_output callback", self(Layer::Callback), "benchmark consumer on pool threads");
  row("trace hook", self(Layer::Hook), "Options::trace deliveries (tracing cost)");
  row("coordination", coordination, "pool CPU outside the spans: executor, ports, entities, det, wire");
  row("other threads", static_cast<double>(other), "");
  row("sum", sum, "");
  row("process CPU", process, "");
  row("(port calls, wall)", self(Layer::Ports), "client time inside port calls, waiting included");
  char buf[160];
  std::snprintf(buf, sizeof buf, "  layer_sum_error %.4f (tolerance %.2f)%s\n", error,
                kLayerSumTolerance, error <= kLayerSumTolerance ? "" : "  EXCEEDED");
  table << buf;
  out.layer_table = table.str();
  out.facts.emplace_back("layer_sum_tolerance", json_number(kLayerSumTolerance));
  if (error > kLayerSumTolerance) {
    std::fprintf(stderr, "perfbench: layer sum misses process CPU by %.1f%%\n", error * 100);
  }
}

double median_verify_ms(const snet::Net& topology, int n) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const double t0 = wall_s();
    const snet::VerifyReport report = snet::verify(topology);
    ms.push_back((wall_s() - t0) * 1e3);
  }
  return median(ms);
}

std::string options_json(const snet::Options& o) {
  std::ostringstream s;
  s << "{\"workers\":" << o.workers << ",\"quantum\":" << o.quantum
    << ",\"inbox_capacity\":" << o.inbox_capacity
    << ",\"output_capacity\":" << o.output_capacity
    << ",\"det_capacity\":" << o.det_capacity << ",\"det_overflow\":"
    << (o.det_overflow == snet::OverflowPolicy::Spill ? "\"spill\"" : "\"fail_fast\"")
    << ",\"spill_to_disk\":" << (o.spill_to_disk ? "true" : "false")
    << ",\"batching\":" << (o.batching ? "true" : "false")
    << ",\"type_check\":" << (o.type_check ? "true" : "false") << ",\"verify\":"
    << (o.verify == snet::VerifyMode::Off    ? "\"off\""
        : o.verify == snet::VerifyMode::Warn ? "\"warn\""
                                             : "\"strict\"")
    << "}";
  return s.str();
}

}  // namespace perfbench
