/// fig2_puzzles: the product `sudoku::fig2_net()` on one session.
///
/// Why: it is the paper's own network, and SaC with-loops inside the boxes
/// dominate it; about fifty serial star stages per puzzle make per-hop and
/// wake-up latency show in latency_p50_ms. Two puzzles are kept in flight
/// so the pool has work while one puzzle's search narrows to a single
/// branch. Network blocks alternate with blocks in which the sequential
/// solver solves the same puzzles in the same process, which gives
/// coordination_overhead; a block-wise interleave keeps the two sides
/// exposed to the same machine state.

#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "hops.hpp"
#include "puzzles.hpp"
#include "stats.hpp"
#include "sudoku/nets.hpp"
#include "sudoku/solver.hpp"
#include "sysinfo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPool = 256;     // distinct puzzles, cycled
constexpr std::size_t kWarm = 8;       // puzzles solved by each warm-up
/// The warm-up puzzles are the same for every seed, so set-up does the
/// same work on every run.
constexpr std::uint64_t kWarmSeed = 0;
constexpr std::size_t kInFlight = 2;
constexpr std::size_t kBlock = 24;     // puzzles per network/sequential block
constexpr std::int64_t kWarmBase = std::int64_t{1} << 40;  // warm-up item ids

/// A puzzle set; item ids index it cyclically.
struct Inputs {
  explicit Inputs(std::vector<Grid> g) : grids(std::move(g)) {
    for (const Grid& p : grids) {
      boards.push_back(to_board(p));
    }
  }
  std::vector<Grid> grids;
  std::vector<sudoku::BoardArray> boards;
  std::size_t index(std::int64_t id) const { return static_cast<std::size_t>(id) % grids.size(); }
  const Grid& grid(std::int64_t id) const { return grids[index(id)]; }
  const sudoku::BoardArray& board(std::int64_t id) const { return boards[index(id)]; }
};

snet::Record puzzle_record(const sudoku::BoardArray& board, std::int64_t id) {
  static const snet::Label id_label = snet::tag_label("id");
  snet::Record r = sudoku::board_record(board);
  r.set_tag(id_label, id);
  return r;
}

std::optional<Grid> grid_of(const snet::Record& r) {
  static const snet::Label board_label = snet::field_label("board");
  if (!r.has_field(board_label)) {
    return std::nullopt;
  }
  const snet::Value& v = r.field(board_label);
  if (v == nullptr || v->type() != typeid(sudoku::BoardArray)) {
    return std::nullopt;
  }
  try {
    return to_grid(snet::value_as<sudoku::BoardArray>(v));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Solutions seen per pool puzzle: the traced phase must reproduce the
/// untraced phase's.
struct SolutionMemo {
  std::vector<std::optional<Grid>> by_pool = std::vector<std::optional<Grid>>(kPool);
  bool record = true;
  std::size_t mismatches = 0;
  void see(std::int64_t id, const Grid& g) {
    auto& slot = by_pool[static_cast<std::size_t>(id) % by_pool.size()];
    if (record && !slot) {
      slot = g;
    } else if (!record && slot && *slot != g) {
      ++mismatches;
    }
  }
};

/// Items [first, first + count) through the network, kInFlight at a time.
/// Ledger ids are item ids minus \p base.
void run_block(snet::Network& net, const Inputs& in, std::int64_t first, std::size_t count,
               std::int64_t base, Ledger& ledger, std::vector<double>* latency_ms,
               SolutionMemo* memo) {
  ledger.expect(static_cast<std::size_t>(first - base) + count);
  std::vector<double> injected_at(count, 0);
  std::size_t next = 0;
  std::size_t done = 0;
  std::size_t in_flight = 0;
  while (done < count) {
    while (in_flight < kInFlight && next < count) {
      const std::int64_t id = first + static_cast<std::int64_t>(next);
      snet::Record r = puzzle_record(in.board(id), id);
      injected_at[next] = wall_s();
      {
        const Span span(Layer::Ports, "port.inject", id);
        net.input().inject(std::move(r));
      }
      ++next;
      ++in_flight;
    }
    std::optional<snet::Record> out;
    {
      const Span span(Layer::Ports, "port.next", -1);
      out = net.output().next();
    }
    if (!out) {
      break;  // the session ended early; the ledger reports the rest missing
    }
    const double t = wall_s();
    const std::int64_t id = item_of(*out);
    const std::optional<Grid> g = grid_of(*out);
    const bool in_block = id >= first && id < first + static_cast<std::int64_t>(count);
    ledger.deliver(in_block ? id - base : -1, in_block && g && solves(in.grid(id), *g));
    if (in_block) {
      if (latency_ms != nullptr) {
        latency_ms->push_back((t - injected_at[static_cast<std::size_t>(id - first)]) * 1e3);
      }
      if (memo != nullptr && g) {
        memo->see(id, *g);
      }
    }
    --in_flight;
    ++done;
  }
}

/// Waits until no record of the session is inside the network: Fig. 2
/// explores the whole search tree, so dead branches may still be running
/// after a block's last solution arrived, and their cost belongs to it.
void settle(snet::Network& net) {
  for (;;) {
    std::int64_t live = 0;
    for (const snet::SessionStats& s : net.stats().session_stats) {
      live += s.live;
    }
    if (live == 0) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Closes the session, checks that nothing beyond the expected outputs
/// arrives, and waits for quiescence.
void drain(snet::Network& net, Ledger& ledger) {
  for (const snet::Record& r : net.output().collect()) {
    ledger.deliver(item_of(r), false);  // any leftover output is a duplicate
  }
  net.wait();
}

struct Setup {
  std::unique_ptr<snet::Network> net;
  double construct_s = 0;
  double total_s = 0;
};

Setup set_up(const snet::Net& topology, const snet::Options& opts, const Inputs& warm,
             Ledger& warm_ledger, std::int64_t warm_first) {
  Setup s;
  const double t0 = wall_s();
  s.net = std::make_unique<snet::Network>(topology, opts);
  s.construct_s = wall_s() - t0;
  run_block(*s.net, warm, kWarmBase + warm_first, kWarm, kWarmBase, warm_ledger, nullptr,
            nullptr);
  settle(*s.net);
  s.total_s = wall_s() - t0;
  return s;
}

struct SeqTotals {
  double wall_s = 0;
  std::uint64_t puzzles = 0;
  std::uint64_t nodes = 0;
  std::uint64_t wrong = 0;
};

/// The sequential solver on items [first, first + count).
void seq_block(const Inputs& in, std::int64_t first, std::size_t count, SeqTotals& seq) {
  const double t0 = wall_s();
  for (std::size_t k = 0; k < count; ++k) {
    const std::int64_t id = first + static_cast<std::int64_t>(k);
    sudoku::SolveStats stats;
    const sudoku::SolveResult res =
        sudoku::solve_board(in.board(id), sudoku::Pick::MinOptions, &stats);
    seq.nodes += stats.nodes;
    if (!res.completed || !solves(in.grid(id), to_grid(res.board))) {
      ++seq.wrong;
    }
  }
  seq.wall_s += wall_s() - t0;
  seq.puzzles += count;
}

/// A phase: network blocks interleaved with sequential blocks on the same
/// puzzles until \p budget seconds have passed. Each network block is a
/// window whose reference is the sequential block. Wall, CPU and (with
/// \p per_thread) per-thread CPU accumulate over the network blocks only.
/// Ends with the session closed and drained.
void run_phase(snet::Network& net, const Inputs& in, double budget, bool per_thread,
               Ledger& ledger, SolutionMemo& memo, Phase& p, SeqTotals& seq) {
  const Counters c0 = counters(net.stats());
  const double start = wall_s();
  std::int64_t first = 0;
  while (wall_s() - start < budget) {
    std::map<int, std::int64_t> threads0;
    if (per_thread) {
      threads0 = thread_cpu_ns();
    }
    const std::size_t latency0 = p.latency_ms.size();
    const MachineTicks ticks0 = machine_ticks();
    const double w0 = wall_s();
    const double cpu0 = process_cpu_s();
    run_block(net, in, first, kBlock, 0, ledger, &p.latency_ms, &memo);
    settle(net);
    Window w{.wall_s = wall_s() - w0,
             .cpu_s = process_cpu_s() - cpu0,
             .items = kBlock,
             .steal = steal_share(ticks0, machine_ticks()),
             .latency_begin = latency0,
             .latency_end = p.latency_ms.size()};
    p.cpu_s += w.cpu_s;
    p.wall_s += w.wall_s;
    p.items += w.items;
    if (per_thread) {
      for (const auto& [tid, ns] : thread_cpu_ns()) {
        const auto before = threads0.find(tid);
        p.threads_after[tid] += ns - (before == threads0.end() ? 0 : before->second);
      }
    }
    const double seq0 = seq.wall_s;
    const std::uint64_t nodes0 = seq.nodes;
    seq_block(in, first, kBlock, seq);
    w.ref_s = seq.wall_s - seq0;
    w.ref_items = kBlock;
    w.ref_work = seq.nodes - nodes0;
    p.windows.push_back(w);
    first += static_cast<std::int64_t>(kBlock);
  }
  finish_counters(p, net, c0);
  drain(net, ledger);
}

}  // namespace

Outcome run_fig2_puzzles(const RunConfig& cfg) {
  Outcome out;
  const double gen0 = wall_s();
  const Inputs in(generate_puzzles(cfg.seed, kPool));
  const double inputs_s = wall_s() - gen0;
  const Inputs warm_set(generate_puzzles(kWarmSeed, kWarm));

  snet::Options opts;
  opts.workers = cfg.pool;
  out.options = options_json(opts);
  out.facts.emplace_back("workload", json_string(
      "puzzles=" + std::to_string(kPool) + " clues=" + std::to_string(kMinClues) + ".." +
      std::to_string(kMaxClues) + " tree_nodes=" + std::to_string(kMinNodes) + ".." +
      std::to_string(kMaxNodes) + " in_flight=" + std::to_string(kInFlight) +
      " block=" + std::to_string(kBlock) + " warmup=" + std::to_string(kWarm)));

  const snet::Net topology = sudoku::fig2_net();
  const double verify_ms = median_verify_ms(topology, cfg.setups);
  std::vector<double> construct_ms;
  std::vector<double> setup_s;
  std::vector<double> setup_steal;
  Ledger warm;
  Setup live;
  for (int i = 0; i < cfg.setups; ++i) {
    if (live.net) {
      drain(*live.net, warm);
    }
    const MachineTicks ticks = machine_ticks();
    live = set_up(topology, opts, warm_set, warm, static_cast<std::int64_t>(i * kWarm));
    construct_ms.push_back(live.construct_s * 1e3);
    setup_s.push_back(live.total_s);
    setup_steal.push_back(steal_share(ticks, machine_ticks()));
  }

  // Untraced phase on the last set-up network.
  const double budget = cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
  Phase u;
  SeqTotals seq;
  Ledger ledger;
  SolutionMemo memo;
  run_phase(*live.net, in, budget, /*per_thread=*/false, ledger, memo, u, seq);
  live.net.reset();
  account(out, warm, "warm-up");
  account(out, ledger, "untraced");
  if (seq.wrong > 0) {
    out.correct = false;
    out.failure += "sequential solver: " + std::to_string(seq.wrong) + " wrong; ";
  }
  out.facts.emplace_back("seq.puzzles", json_number(static_cast<double>(seq.puzzles)));

  if (!cfg.trace) {
    end_to_end(u, calm_median(setup_s, setup_steal), out.metrics, out.facts);
    return out;
  }

  // Traced phase: a fresh network over a box-wrapped copy of the topology.
  Tracer& tr = tracer();
  tr.register_thread();
  snet::Options topts = opts;
  topts.trace = tr.delivery_hook(1);
  Phase t;
  SeqTotals traced_seq;
  Ledger traced_ledger;
  Ledger traced_warm;
  memo.record = false;
  {
    Setup traced = set_up(tr.wrap_boxes(topology), topts, warm_set, traced_warm, 0);
    tr.set_on(true);
    run_phase(*traced.net, in, budget, /*per_thread=*/true, traced_ledger, memo, t, traced_seq);
    tr.set_on(false);
  }
  account(out, traced_warm, "traced warm-up");
  account(out, traced_ledger, "traced");
  if (memo.mismatches > 0) {
    out.correct = false;
    out.failure += "traced outputs differ from untraced: " +
                   std::to_string(memo.mismatches) + "; ";
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
  out.metrics.set("sacpp.seq_ms_per_puzzle", seq.wall_s * 1e3 / static_cast<double>(seq.puzzles), "ms");
  out.metrics.set("sacpp.seq_nodes_per_puzzle",
                  static_cast<double>(seq.nodes) / static_cast<double>(seq.puzzles), "count");
  return out;
}

}  // namespace perfbench
