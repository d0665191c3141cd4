/// The Fig.3-style fast-producer bench for end-to-end bounded streams: a
/// producer thread slams records into a slow pipeline while a consumer
/// drains the OutputPort. Unbounded (the legacy behaviour) the backlog —
/// NetworkStats::peak_live — tracks the injected count; with an inbox
/// bound B it must stay O(B × entities), at comparable throughput.
///
/// *Enforces* the acceptance bars once both modes ran: bounded peak_live
/// ≤ entities × (B + quantum) + B (inbox + quantum overshoot, plus the
/// output buffer), unbounded peak_live ≥ 10× the bounded one, bounded
/// throughput within 15% of unbounded, and no record lost (non-zero exit
/// otherwise).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "snet/network.hpp"
#include "snet/value.hpp"

using namespace snet;

namespace {

/// `(x) -> (x)` box that burns a fixed amount of CPU per record: the slow
/// consumer a fast producer out-runs (the paper's Fig. 3 throttling
/// scenario, reduced to its memory-behaviour core).
Net slow_box(const std::string& name, int spin_iters) {
  return box(name, "(x) -> (x)",
             [spin_iters](const BoxInput& in, BoxOutput& out) {
               volatile unsigned sink = 0;  // unsigned: the sum may wrap
               for (int i = 0; i < spin_iters; ++i) {
                 sink = sink + static_cast<unsigned>(i);
               }
               out.out(1, in.field("x"));
             });
}

struct RunResult {
  double records_per_sec = 0;
  std::int64_t peak_live = 0;
  std::uint64_t suspensions = 0;
  std::size_t entities = 0;
};

RunResult run_once(std::size_t bound, int records) {
  Options opts;
  opts.workers = 2;
  opts.inbox_capacity = bound;
  opts.output_capacity = bound;
  Network net(slow_box("stage1", 300) >> slow_box("stage2", 1200),
              std::move(opts));
  const auto t0 = std::chrono::steady_clock::now();
  // Concurrent consumer: with a bounded output buffer the pipeline would
  // otherwise (correctly) stall forever — bounded streams make the
  // consumer part of the flow-control loop.
  std::uint64_t consumed = 0;
  std::thread consumer([&net, &consumed] {
    // Span-wise drain: the consumer is part of the flow-control loop, so
    // its per-record cost is on the measured path — pop whole buffered
    // spans (one lock + one credit release each) like a real streaming
    // client would.
    std::vector<Record> span;
    while (std::size_t n = net.output().next_span(span)) {
      consumed += n;
      span.clear();
    }
  });
  for (int i = 0; i < records; ++i) {
    Record r;
    r.set_field(field_label("x"), make_value(i));
    net.input().inject(std::move(r));
  }
  net.input().close();
  consumer.join();
  const auto t1 = std::chrono::steady_clock::now();
  const NetworkStats stats = net.stats();
  RunResult res;
  res.records_per_sec =
      records / std::chrono::duration<double>(t1 - t0).count();
  res.peak_live = stats.peak_live;
  res.suspensions = stats.suspensions;
  res.entities = stats.entity_count();
  if (consumed != static_cast<std::uint64_t>(records)) {
    std::fprintf(stderr, "record loss: consumed %llu of %d\n",
                 static_cast<unsigned long long>(consumed), records);
    std::exit(2);
  }
  return res;
}

void keep_best(RunResult& best, const RunResult& again) {
  if (again.records_per_sec > best.records_per_sec) {
    best = again;
  }
}

}  // namespace

int main() {
  // A flow-controlled pipeline overlaps producer, stages, and consumer for
  // the whole run; on a 1-core pool the stall/resume latency cannot be
  // hidden and the comparison measures scheduling, not backpressure. Give
  // the bench a small fixed pool (no-op when the operator already chose).
  setenv("SNETSAC_THREADS", "4", /*overwrite=*/0);
  constexpr int kRecords = 40000;
  constexpr std::size_t kBound = 64;
  run_once(0, kRecords / 10);  // warmup

  // Interleave the repetitions of the two legs: host noise drifts on the
  // scale of whole runs, so back-to-back best-of blocks can hand one leg
  // a quiet window the other never sees — alternating gives both legs the
  // same weather and the ratio compares like with like.
  RunResult unbounded = run_once(0, kRecords);
  RunResult bounded = run_once(kBound, kRecords);
  for (int i = 1; i < 5; ++i) {
    keep_best(unbounded, run_once(0, kRecords));
    keep_best(bounded, run_once(kBound, kRecords));
  }

  const double peak_ratio =
      static_cast<double>(unbounded.peak_live) /
      static_cast<double>(bounded.peak_live > 0 ? bounded.peak_live : 1);
  const double throughput_ratio =
      bounded.records_per_sec / unbounded.records_per_sec;

  std::printf("unbounded: peak_live=%lld  %.0f records/sec\n",
              static_cast<long long>(unbounded.peak_live),
              unbounded.records_per_sec);
  std::printf("bounded(B=%zu): peak_live=%lld  %.0f records/sec  "
              "suspensions=%llu\n",
              kBound, static_cast<long long>(bounded.peak_live),
              bounded.records_per_sec,
              static_cast<unsigned long long>(bounded.suspensions));
  std::printf("peak ratio %.1fx, bounded throughput %.0f%% of unbounded\n",
              peak_ratio, 100.0 * throughput_ratio);

  // Acceptance bars (see ISSUE 3). The peak bound allows inbox + one
  // quantum of overshoot per entity plus the bounded output buffer.
  const auto peak_cap = static_cast<std::int64_t>(
      bounded.entities * (kBound + Options{}.quantum) + kBound);
  int rc = 0;
  if (bounded.peak_live > peak_cap) {
    std::fprintf(stderr, "FAIL: bounded peak_live %lld > cap %lld\n",
                 static_cast<long long>(bounded.peak_live),
                 static_cast<long long>(peak_cap));
    rc = 1;
  }
  if (peak_ratio < 10.0) {
    std::fprintf(stderr, "FAIL: unbounded/bounded peak ratio %.1f < 10\n",
                 peak_ratio);
    rc = 1;
  }
  if (throughput_ratio < 0.85) {
    std::fprintf(stderr, "FAIL: bounded throughput %.0f%% of unbounded (< 85%%)\n",
                 100.0 * throughput_ratio);
    rc = 1;
  }
  return rc;
}
