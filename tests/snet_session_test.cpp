/// Port/session client API: independent logical sessions over one shared
/// instantiated topology. Records are session-stamped on entry and
/// demultiplexed back to the owning session's OutputPort — two interleaved
/// clients must each receive exactly their own outputs, including through
/// deterministic regions, synchrocells, and dynamically unfolding stars.
/// Per-session QoS: a slow reader must only throttle itself (output
/// credit), a hot injector must not monopolise admission (weighted DRR),
/// and a det-heavy tenant must hit its interior cap policy (Spill keeps
/// ordering, FailFast errors only the offender).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/sim_executor.hpp"
#include "snet/network.hpp"
#include "snet/value.hpp"

using namespace snet;

namespace {

Record int_rec(int v) {
  Record r;
  r.set_field(field_label("x"), make_value(v));
  return r;
}

Net ident(const std::string& name) {
  return box(name, "(x) -> (x)", [](const BoxInput& in, BoxOutput& out) {
    out.out(1, in.field("x"));
  });
}

Net adder(const std::string& name, int delta) {
  return box(name, "(x) -> (x)",
             [delta](const BoxInput& in, BoxOutput& out) {
               out.out(1, make_value(in.get<int>("x") + delta));
             });
}

/// `(x) -> (x)` box burning ~\p spin_iters of CPU per record: makes one
/// parallel branch (or a pipeline stage) measurably slow.
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

std::multiset<int> xs_of(const std::vector<Record>& recs) {
  std::multiset<int> out;
  for (const auto& r : recs) {
    out.insert(value_as<int>(r.field("x")));
  }
  return out;
}

Options workers(unsigned w) {
  Options o;
  o.workers = w;
  return o;
}

/// The stats row of session \p id (empty row if reclaimed).
SessionStats stats_of(const Network& net, std::uint32_t id) {
  for (const auto& row : net.stats().session_stats) {
    if (row.id == id) {
      return row;
    }
  }
  return {};
}

/// Polls (bounded) until \p pred on the session's stats row holds.
bool poll_session(const Network& net, std::uint32_t id,
                  const std::function<bool(const SessionStats&)>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred(stats_of(net, id))) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace

TEST(Session, TwoInterleavedSessionsReceiveExactlyTheirOwnOutputs) {
  Network net(adder("inc", 1), workers(4));
  Session a = net.open_session();
  Session b = net.open_session();
  std::multiset<int> want_a;
  std::multiset<int> want_b;
  for (int i = 0; i < 200; ++i) {
    a.input().inject(int_rec(i));
    want_a.insert(i + 1);
    b.input().inject(int_rec(1000 + i));
    want_b.insert(1000 + i + 1);
  }
  a.close();
  b.close();
  // Collect b first: demux must not depend on consumption order.
  EXPECT_EQ(xs_of(b.output().collect()), want_b);
  EXPECT_EQ(xs_of(a.output().collect()), want_a);
}

TEST(Session, DemuxHoldsUnderDetCombinator) {
  // A deterministic region's collector restores *per-group* order across
  // the session mix; the session demux must still split the merged stream
  // correctly, and each session must see its own records in injection
  // order (det order is global, sessions interleave it — but within one
  // session the relative order is preserved).
  Network net(parallel_det(adder("even", 0), ident("bypass")), workers(4));
  Session a = net.open_session();
  Session b = net.open_session();
  for (int i = 0; i < 100; ++i) {
    a.input().inject(int_rec(2 * i));
    b.input().inject(int_rec(2 * i + 1));
  }
  a.close();
  b.close();
  const auto out_a = a.output().collect();
  const auto out_b = b.output().collect();
  ASSERT_EQ(out_a.size(), 100U);
  ASSERT_EQ(out_b.size(), 100U);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(value_as<int>(out_a[static_cast<std::size_t>(i)].field("x")), 2 * i);
    EXPECT_EQ(value_as<int>(out_b[static_cast<std::size_t>(i)].field("x")),
              2 * i + 1);
  }
}

TEST(Session, ConcurrentClientThreadsShareOneTopology) {
  // The multi-tenant serving scenario: N client threads, one network.
  constexpr int kClients = 8;
  constexpr int kEach = 250;
  Network net(adder("inc", 1) >> adder("inc2", 1), workers(4));
  std::atomic<int> mismatches{0};
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&net, &mismatches, c] {
        Session s = net.open_session();
        const int base = c * 10000;
        for (int i = 0; i < kEach; ++i) {
          s.input().inject(int_rec(base + i));
        }
        const auto out = s.output().collect();
        if (out.size() != static_cast<std::size_t>(kEach)) {
          mismatches.fetch_add(1);
          return;
        }
        std::multiset<int> got = xs_of(out);
        for (int i = 0; i < kEach; ++i) {
          if (got.count(base + i + 2) != 1) {
            mismatches.fetch_add(1);
            return;
          }
        }
      });
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  // The shared topology served every client: one entity graph, not one
  // per request (the default session is lazy — never touched, never
  // counted, and wait() does not require closing it).
  EXPECT_EQ(net.stats().sessions, static_cast<std::uint64_t>(kClients));
  net.wait();
}

TEST(Session, OnOutputCallbackStreamsRecordsWithoutBuffering) {
  Network net(adder("inc", 1), workers(2));
  Session s = net.open_session();
  std::mutex mu;
  std::vector<int> seen;
  s.output().on_output([&](Record r) {
    const std::lock_guard lock(mu);
    seen.push_back(value_as<int>(r.field("x")));
  });
  for (int i = 0; i < 50; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  net.wait();  // the default session is lazy: only s gates quiescence
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 50U);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(Session, OutputPortIsRangeIterable) {
  Network net(adder("inc", 1), workers(2));
  for (int i = 0; i < 20; ++i) {
    net.input().inject(int_rec(i));
  }
  net.input().close();
  std::multiset<int> got;
  for (Record& r : net.output()) {
    got.insert(value_as<int>(r.field("x")));
  }
  std::multiset<int> want;
  for (int i = 0; i < 20; ++i) {
    want.insert(i + 1);
  }
  EXPECT_EQ(got, want);
}

TEST(Session, DroppedHandleReleasesTheSessionAndNetworkStillQuiesces) {
  Network net(ident("id"), workers(2));
  {
    Session s = net.open_session();
    s.input().inject(int_rec(7));
    // Handle goes out of scope without close or drain: the release
    // closes the input and discards the output, so wait() below cannot
    // wedge on the forgotten session.
  }
  net.wait();
}

TEST(Session, AbandonedSessionDoesNotWedgeOtherSessions) {
  // A dropped handle with a *bounded*, never-consumed output buffer must
  // not hold the shared output path: released sessions drop their outputs
  // and their credit, so other clients' streams keep flowing. The gate
  // itself must be visible first: once the ghost's results occupy its
  // whole credit account, try_inject reports "full" instead of blocking.
  Options o;
  o.workers = 2;
  o.output_capacity = 2;
  Network net(adder("inc", 1), std::move(o));
  {
    Session ghost = net.open_session();
    for (int i = 0; i < 2; ++i) {
      ghost.input().inject(int_rec(i));
    }
    ASSERT_TRUE(poll_session(
        net, ghost.id(),
        [](const SessionStats& s) { return s.output_account >= 2; }))
        << "ghost's results never charged its credit account";
    Record extra = int_rec(99);
    EXPECT_FALSE(ghost.input().try_inject(extra))
        << "exhausted output credit must refuse non-blocking injects";
    // Dropped with 2 buffered results nobody will ever read.
  }
  Session alive = net.open_session();
  std::jthread feeder([&] {
    for (int i = 0; i < 100; ++i) {
      alive.input().inject(int_rec(1000 + i));
    }
    alive.input().close();
  });
  std::multiset<int> got;
  while (auto r = alive.output().next()) {
    got.insert(value_as<int>(r->field("x")));
  }
  feeder.join();
  ASSERT_EQ(got.size(), 100U);
  EXPECT_EQ(*got.begin(), 1001);
  net.wait();  // ghost's records drained (dropped), alive closed: quiesced
}

TEST(Session, DefaultSessionAndExplicitSessionsCoexist) {
  Network net(adder("inc", 1), workers(2));
  Session s = net.open_session();
  net.input().inject(int_rec(10));
  s.input().inject(int_rec(20));
  s.close();
  const auto session_out = s.output().collect();
  ASSERT_EQ(session_out.size(), 1U);
  EXPECT_EQ(value_as<int>(session_out[0].field("x")), 21);
  const auto default_out = net.output().collect();
  ASSERT_EQ(default_out.size(), 1U);
  EXPECT_EQ(value_as<int>(default_out[0].field("x")), 11);
}

TEST(Session, InjectAfterCloseThrowsPerSession) {
  Network net(ident("id"), workers(1));
  Session a = net.open_session();
  Session b = net.open_session();
  a.close();
  EXPECT_THROW(a.input().inject(int_rec(1)), std::logic_error);
  // Closing one session must not close its siblings.
  b.input().inject(int_rec(2));
  b.close();
  EXPECT_EQ(b.output().collect().size(), 1U);
  net.input().close();
  net.wait();
}

TEST(Session, SessionsUnderBoundedStreams) {
  // Sessions and backpressure compose: both clients keep their streams
  // intact while the shared bounded pipeline throttles them.
  Options o;
  o.workers = 2;
  o.inbox_capacity = 4;
  o.output_capacity = 4;
  Network net(adder("inc", 1), std::move(o));
  Session a = net.open_session();
  Session b = net.open_session();
  std::jthread feed_a([&] {
    for (int i = 0; i < 300; ++i) {
      a.input().inject(int_rec(i));
    }
    a.close();
  });
  std::jthread feed_b([&] {
    for (int i = 0; i < 300; ++i) {
      b.input().inject(int_rec(100000 + i));
    }
    b.close();
  });
  std::vector<Record> got_a;
  std::vector<Record> got_b;
  // Drain with next(), not collect(): collect() closes the input, which
  // would race the feeder threads still injecting.
  std::jthread drain_a([&] {
    while (auto r = a.output().next()) {
      got_a.push_back(std::move(*r));
    }
  });
  std::jthread drain_b([&] {
    while (auto r = b.output().next()) {
      got_b.push_back(std::move(*r));
    }
  });
  drain_a.join();
  drain_b.join();
  EXPECT_EQ(got_a.size(), 300U);
  EXPECT_EQ(got_b.size(), 300U);
  for (const auto& r : got_a) {
    EXPECT_LT(value_as<int>(r.field("x")), 100000);
  }
  for (const auto& r : got_b) {
    EXPECT_GE(value_as<int>(r.field("x")), 100000);
  }
}

TEST(Session, SlowReaderDoesNotHeadOfLineBlockOtherSessions) {
  // Regression for the PR-3 known limitation: a slow-but-live session
  // whose bounded output buffer filled used to stall the *shared* output
  // entity, head-of-line blocking every other session's results until the
  // slow client consumed. With per-session output credit the slow
  // reader's injects block on its own account, and its records already in
  // flight are buffered in its own session — nobody else notices.
  // Two legs: the slow client finally drains with next(), or it installs
  // an on_output sink over its full account, whose buffer flush must hand
  // over every record once, in order.
  for (const bool sink_leg : {false, true}) {
    SCOPED_TRACE(sink_leg ? "on_output leg" : "next() leg");
    Options o;
    o.workers = 2;
    o.inbox_capacity = 8;
    o.output_capacity = 4;
    // Every record fans out to 8: a single slow-session inject overwhelms
    // its own credit account (cap 4), so surplus records *must* arrive
    // over the bound at the shared output entity — the deterministic
    // head-of-line setup the old design answered by stalling that entity
    // for everyone.
    auto fan = box("fan", "(x) -> (x)", [](const BoxInput& in, BoxOutput& out) {
      for (int k = 0; k < 8; ++k) {
        out.out(1, in.field("x"));
      }
    });
    Network net(fan, std::move(o));
    Session slow = net.open_session();
    Session fast = net.open_session();
    // The slow session's feeder outruns a client that reads nothing: its
    // account fills mid-fan-out and the feeder blocks on the credit gate.
    std::jthread slow_feeder([&] {
      for (int i = 0; i < 40; ++i) {
        slow.input().inject(int_rec(i));
      }
      slow.close();
    });
    ASSERT_TRUE(poll_session(net, slow.id(), [](const SessionStats& s) {
      return s.output_stalls > 0;
    })) << "slow session's surplus records never arrived over its bound";
    // The fast session must stream through, full rate, while slow is wedged.
    std::jthread fast_feeder([&] {
      for (int i = 0; i < 50; ++i) {
        fast.input().inject(int_rec(1000 + i));
      }
      fast.close();
    });
    std::size_t got_fast = 0;
    while (fast.output().next().has_value()) {
      ++got_fast;
    }
    EXPECT_EQ(got_fast, 400U);  // old design: wedged right here
    // Now the slow client finally reads: every record arrives, in
    // per-session order.
    std::vector<int> got_slow;
    if (!sink_leg) {
      while (auto r = slow.output().next()) {
        got_slow.push_back(value_as<int>(r->field("x")));
      }
      slow_feeder.join();
    } else {
      // The flush runs here; later records reach the sink from a worker,
      // serialised, and all of them before the session's last live record
      // retires — so once the network quiesces, got_slow is complete.
      slow.output().on_output([&got_slow](Record r) {
        got_slow.push_back(value_as<int>(r.field("x")));
      });
      slow_feeder.join();
      fast_feeder.join();
      net.wait();
    }
    ASSERT_EQ(got_slow.size(), 320U);
    for (std::size_t i = 0; i < got_slow.size(); ++i) {
      EXPECT_EQ(got_slow[i], static_cast<int>(i / 8))
          << "deferral reordered the slow session's stream";
    }
    const SessionStats slow_row = stats_of(net, slow.id());
    EXPECT_GT(slow_row.output_stalls, 0U);
    net.wait();
  }
}

/// Weighted DRR shares: three sessions with weights 1:2:4 keep their
/// staging queues full against a slow box, so the input dispatcher is the
/// only arbiter of entry bandwidth. Over a window of 32 DRR rounds the
/// records it forwards must follow the weights (±20%). The box sleeps
/// rather than spins, so the feeder threads get a core to refill staging
/// on a loaded host. Two inbox bounds: 32 is smaller than the weight-4
/// session's turn (quantum 16 × 4), so its staging queue must be sized to
/// the turn or it runs dry mid-turn; 128 makes the per-poke record
/// budget, not the queue, cut turns short.
class SessionDrr : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SessionDrr, ForwardedSharesFollowTheWeights) {
  Options o;
  o.workers = 2;
  o.quantum = 16;
  o.inbox_capacity = GetParam();
  auto nap = box("nap", "(x) -> (x)", [](const BoxInput& in, BoxOutput& out) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    out.out(1, in.field("x"));
  });
  Network net(nap, std::move(o));
  constexpr unsigned kWeights[] = {1, 2, 4};
  constexpr std::uint64_t kRound = 16 * (1 + 2 + 4);
  std::vector<Session> sessions;
  for (const unsigned w : kWeights) {
    SessionOptions so;
    so.weight = w;
    sessions.push_back(net.open_session(so));
  }
  const auto forwarded = [&] {
    std::vector<std::uint64_t> f(sessions.size(), 0);
    for (const auto& row : net.stats().session_stats) {
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        if (row.id == sessions[i].id()) {
          f[i] = row.forwarded;
        }
      }
    }
    return f;
  };
  const auto total = [](const std::vector<std::uint64_t>& f) {
    std::uint64_t t = 0;
    for (const std::uint64_t n : f) {
      t += n;
    }
    return t;
  };
  // Polls (bounded) until the sessions have forwarded \p n records in all.
  const auto await_total = [&](std::uint64_t n) {
    for (int i = 0; i < 20000; ++i) {
      const std::vector<std::uint64_t> f = forwarded();
      if (total(f) >= n) {
        return f;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "the dispatcher stopped forwarding";
    return forwarded();
  };
  std::atomic<bool> stop{false};
  std::vector<std::jthread> feeders;
  for (Session& s : sessions) {
    feeders.emplace_back([&s, &stop] {
      for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
        s.input().inject(int_rec(i));  // blocks while staging is full
      }
      s.close();
    });
  }
  // Measure past a warm-up, so every feeder is running and the first
  // records (which may bypass staging) are out of the window.
  const std::vector<std::uint64_t> before = await_total(4 * kRound);
  const std::vector<std::uint64_t> after = await_total(total(before) + 32 * kRound);
  stop.store(true, std::memory_order_release);
  feeders.clear();  // joins
  const double unit = static_cast<double>(after[0] - before[0]);
  ASSERT_GT(unit, 0.0) << "the weight-1 session was never served";
  for (std::size_t i = 1; i < sessions.size(); ++i) {
    const double share = static_cast<double>(after[i] - before[i]) / unit;
    const double want = kWeights[i];
    EXPECT_NEAR(share, want, 0.2 * want)
        << "weight-" << kWeights[i] << " session got " << share
        << "x the weight-1 session's forwarded records (inbox_capacity "
        << GetParam() << ")";
  }
  net.wait();
}

INSTANTIATE_TEST_SUITE_P(InboxCapacity, SessionDrr, ::testing::Values(32U, 128U));

/// A box on the shared executor drives a nested network through its ports:
/// on a worker thread every port wait (staging credit, next()) must run
/// queued tasks through help_until instead of blocking the pool slot.
/// The inner network has inbox_capacity 1, output_capacity 1 and quantum
/// 1 (a one-record staging queue), so the waits happen for real. Its box
/// keeps one record in kBatch, the last of each batch: the output account
/// stays below its bound while a batch is injected, and the outer box pops
/// the kept record before it injects the next batch.
TEST(Session, BoxDrivesANestedNetworkThroughItsPorts) {
  constexpr int kBatch = 4;
  constexpr int kBatches = 8;
  auto keep_last =
      box("keep", "(x) -> (x)", [](const BoxInput& in, BoxOutput& out) {
        if (in.get<int>("x") % kBatch == kBatch - 1) {
          out.out(1, in.field("x"));
        }
      });
  auto nested = box("nested", "(x) -> (x)", [keep_last](const BoxInput& in,
                                                         BoxOutput& out) {
    Options io;
    io.workers = 2;
    io.quantum = 1;
    io.inbox_capacity = 1;
    io.output_capacity = 1;
    Network inner(keep_last, std::move(io));
    Session s = inner.open_session();
    int sum = 0;
    for (int b = 0; b < kBatches; ++b) {
      for (int k = 0; k < kBatch; ++k) {
        s.input().inject(int_rec(b * kBatch + k));
      }
      const auto r = s.output().next();
      if (!r) {
        throw std::runtime_error("inner session ended early");
      }
      sum += value_as<int>(r->field("x"));
    }
    s.close();
    if (s.output().next().has_value()) {
      throw std::runtime_error("inner session emitted past its input");
    }
    inner.wait();
    out.out(1, make_value(in.get<int>("x") + sum));
  });
  int want_sum = 0;
  for (int b = 0; b < kBatches; ++b) {
    want_sum += b * kBatch + kBatch - 1;
  }
  Network outer(nested, workers(2));
  constexpr int kRecords = 6;
  for (int i = 0; i < kRecords; ++i) {
    outer.input().inject(int_rec(1000 * i));
  }
  outer.input().close();
  std::multiset<int> want;
  for (int i = 0; i < kRecords; ++i) {
    want.insert(1000 * i + want_sum);
  }
  EXPECT_EQ(xs_of(outer.output().collect()), want);
  outer.wait();
}

TEST(Session, WeightedDispatchKeepsMeekSessionProgressingUnderFlood) {
  // A hot tenant floods the shared entry while a (heavier-weighted) meek
  // tenant submits a finite batch: deficit-round-robin at the input
  // dispatcher must keep admitting the meek session's records, so it
  // completes while the flood is still running.
  Options o;
  o.workers = 2;
  o.inbox_capacity = 8;  // small staging queues: the DRR engages
  Network net(slow_box("grind", 300), std::move(o));
  Session hot = net.open_session();  // weight 1
  SessionOptions heavy;
  heavy.weight = 4;
  Session meek = net.open_session(heavy);
  EXPECT_EQ(meek.weight(), 4U);
  std::atomic<bool> stop{false};
  std::jthread hot_drain([&] {
    while (hot.output().next().has_value()) {
    }
  });
  std::jthread flood([&] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Record r = int_rec(i++);
      if (!hot.input().try_inject(r)) {
        std::this_thread::yield();  // staging full: the DRR is arbitrating
      }
    }
    hot.close();
  });
  for (int i = 0; i < 200; ++i) {
    meek.input().inject(int_rec(100000 + i));
  }
  meek.close();
  const auto out = meek.output().collect();  // must not starve
  EXPECT_EQ(out.size(), 200U);
  const SessionStats meek_row = stats_of(net, meek.id());
  EXPECT_EQ(meek_row.weight, 4U) << "per-session stats lost the DRR weight";
  stop.store(true, std::memory_order_release);
  flood.join();
  hot_drain.join();
  net.wait();
}

TEST(Session, BypassInjectNeverOvertakesTheSessionsStagedRecords) {
  // Several sessions contend for a bounded entry, so the DRR dispatcher
  // keeps listing and delisting them. A delisted session's next inject
  // bypasses staging straight into the entry: it must land behind the
  // records the dispatcher forwarded for that session, never before them
  // (they may still be in the dispatcher's emit buffer when it delists).
  constexpr int kSessions = 3;
  constexpr int kEach = 20000;
  constexpr int kRounds = 5;
  Options o;
  o.workers = 3;
  o.inbox_capacity = 16;  // the entry refuses often: staging engages
  Network net(ident("a") >> ident("b"), std::move(o));
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> misordered{0};
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kSessions; ++c) {
        clients.emplace_back([&net, &misordered] {
          Session s = net.open_session();
          for (int i = 0; i < kEach; ++i) {
            Record r = int_rec(i);
            while (!s.input().try_inject(r)) {
              std::this_thread::yield();
            }
          }
          const auto out = s.output().collect();
          for (std::size_t i = 0; i < out.size(); ++i) {
            if (value_as<int>(out[i].field("x")) != static_cast<int>(i)) {
              misordered.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (out.size() != static_cast<std::size_t>(kEach)) {
            misordered.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    }
    ASSERT_EQ(misordered.load(), 0)
        << "a bypassing inject overtook its own session's records (round "
        << round << ")";
  }
  net.wait();
}

TEST(Session, DetSpillKeepsOrderingOverTheCap) {
  // A deterministic parallel region with one slow branch: later (fast
  // branch) groups pile up in the collector while the head group grinds,
  // blowing through Options::det_capacity. Under Spill the overflow goes
  // to the secondary list and the session's admission is throttled — but
  // release order must stay exactly the injection order.
  Options o;
  o.workers = 4;
  o.det_capacity = 8;
  o.det_overflow = OverflowPolicy::Spill;
  Network net(parallel_det(slow_box("L", 3000), ident("R")), std::move(o));
  Session s = net.open_session();
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    s.input().inject(int_rec(i));
  }
  s.close();
  const auto out = s.output().collect();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(value_as<int>(out[static_cast<std::size_t>(i)].field("x")), i)
        << "spill reordered the deterministic stream";
  }
  const SessionStats row = stats_of(net, s.id());
  EXPECT_GT(row.spilled, 0U) << "the det cap never engaged — test is vacuous";
}

TEST(Session, DetFailFastErrorsOnlyTheOffendingSession) {
  // FailFast: the tenant whose det buffering exceeds the cap gets a
  // SessionOverflowError on its ports; an innocent concurrent session
  // completes untouched (the cap is per session, not per network).
  Options o;
  o.workers = 4;
  o.det_capacity = 8;
  o.det_overflow = OverflowPolicy::FailFast;
  Network net(parallel_det(slow_box("L", 3000), ident("R")), std::move(o));
  Session victim = net.open_session();
  Session hog = net.open_session();
  // The fail-fast can land while the hog is still injecting, in which
  // case inject itself rethrows the session error — equally correct.
  try {
    for (int i = 0; i < 300; ++i) {
      hog.input().inject(int_rec(i));
    }
  } catch (const SessionOverflowError&) {
  }
  hog.close();
  EXPECT_THROW(hog.output().collect(), SessionOverflowError);
  // The victim's handful of records stays far under the per-session cap.
  for (int i = 0; i < 5; ++i) {
    victim.input().inject(int_rec(1000 + i));
  }
  victim.close();
  const auto out = victim.output().collect();
  ASSERT_EQ(out.size(), 5U);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(value_as<int>(out[static_cast<std::size_t>(i)].field("x")),
              1000 + i);
  }
  const SessionStats hog_row = stats_of(net, hog.id());
  EXPECT_TRUE(hog_row.errored);
  const SessionStats victim_row = stats_of(net, victim.id());
  EXPECT_FALSE(victim_row.errored);
  net.wait();
}

TEST(Session, SyncStorageChargesTheInteriorAccount) {
  // Synchrocell slot storage is charged against the same per-session
  // interior account as det buffering: with a FailFast cap of one record,
  // the second *stored* (not merged, not passed-through) record errors
  // the session.
  Options o;
  o.workers = 2;
  o.det_capacity = 1;
  o.det_overflow = OverflowPolicy::FailFast;
  Network net(sync({"{a}", "{b}", "{c}"}), std::move(o));
  Session s = net.open_session();
  // {a} stores (charge 1, at the cap); {b} stores (charge 2 -- overflow).
  Record ra;
  ra.set_field(field_label("a"), make_value(1));
  s.input().inject(std::move(ra));
  Record rb;
  rb.set_field(field_label("b"), make_value(2));
  s.input().inject(std::move(rb));
  s.close();
  EXPECT_THROW(s.output().collect(), SessionOverflowError);
  // The {a} record stored in the shared cell is evicted when its session
  // fails fast (its accounting unwound), so the network still quiesces.
  net.wait();
}

TEST(Session, ReleasedSessionsRecordsAreNeverHeldByADetCollector) {
  // One admission rule for everything that holds records inside the
  // network: a det collector drops a released session's records on
  // arrival, as a synchrocell does, instead of buffering output nobody
  // can consume. On a SimExecutor nothing runs until the network is
  // driven, so every record reaches the collector after the release.
  for (const bool replicated : {false, true}) {
    SCOPED_TRACE(replicated ? "split_det" : "parallel_det");
    snetsac::runtime::SimExecutor sim(snetsac::runtime::SimExecutor::Options{});
    Options o;
    o.executor = &sim;
    Network net(replicated ? split_det(ident("id"), "k")
                           : parallel_det(ident("L"), ident("R")),
                std::move(o));
    {
      Session s = net.open_session();
      for (int i = 0; i < 8; ++i) {
        Record r = int_rec(i);
        r.set_tag(tag_label("k"), i % 3);
        s.input().inject(std::move(r));
      }
    }  // released with all eight records still in flight
    net.wait();
    const NetworkStats st = net.stats();
    EXPECT_EQ(st.det_buffered_peak, 0);
    EXPECT_EQ(st.produced, 0U);
    net.check_protocol_invariants(true);
  }
}

TEST(Session, ReleasedSessionsSyncSlotIsEvictedAndNetworkQuiesces) {
  // A record stored in a synchrocell keeps its session live by design
  // (the cell may fire later) — but when the handle is *released*, the
  // dead tenant's contribution is evicted from the shared cell, so a
  // forgotten session cannot wedge network quiescence through a cell
  // that never fires.
  Network net(sync({"{a}", "{b}"}), workers(2));
  {
    Session s = net.open_session();
    Record ra;
    ra.set_field(field_label("a"), make_value(1));
    s.input().inject(std::move(ra));
    // Dropped with {a} (possibly already) stored in the shared cell.
  }
  net.wait();
}
