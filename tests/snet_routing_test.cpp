/// Routing at the producer: non-deterministic parallels, splits and star
/// stages are routers (entity.hpp), resolved in the thread of whoever
/// sends to them — the client's inject, the input dispatcher, a box's
/// quantum — so many producers route through one router at once. These
/// tests drive that concurrency and check that it is invisible to
/// everything but the hop count: exactly-once delivery, per-(producer,
/// tag) FIFO, each router's stats row and trace reports, and the
/// static `routed:` report that names who resolves each router.

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "snet/network.hpp"
#include "snet/value.hpp"

using namespace snet;

namespace {

constexpr int kProducers = 8;
constexpr int kTags = 4;
constexpr int kDepth = 2;  // star stages each record passes before exiting

/// Producer box \p i: the only branch of the parallel that accepts <b<i>>.
/// It declares <k> and <n>, so the shape-flow verifier knows the split tag
/// and the star's counter are there; the other tags flow-inherit.
Net producer(int i) {
  const std::string b = "<b" + std::to_string(i) + ">";
  return box("p" + std::to_string(i), "(x, " + b + ", <k>, <n>) -> (x, <k>, <n>)",
             [](const BoxInput& in, BoxOutput& out) {
               out.out(1, in.field("x"), in.tag("k"), in.tag("n"));
             });
}

/// `(p0 || ... || p7) >> split(pass, <k>) >> star(split(down, <k>), {<done>})`:
/// eight producer boxes resolve the split router concurrently, four
/// replicas of `pass` resolve the first star stage, and every stage's
/// split replicas resolve the next stage.
Net many_producer_net() {
  Net branches = producer(0);
  for (int i = 1; i < kProducers; ++i) {
    branches = parallel(branches, producer(i));
  }
  const Net pass = box("pass", "(x) -> (x)",
                       [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  const Net down = box("down", "(<n>) -> (<n>) | (<done>)",
                       [](const BoxInput& in, BoxOutput& out) {
                         const std::int64_t n = in.tag("n");
                         if (n > 1) {
                           out.out(1, n - 1);
                         } else {
                           out.out(2, std::int64_t{1});
                         }
                       });
  return branches >> split(pass, "k") >> star(split(down, "k"), "{<done>}");
}

/// Session \p p's record number \p seq: branch label <b<p>>, and <k>, <s>
/// (the sequence number within its (p, k) stream) and <p> for the check.
Record producer_record(int p, int seq) {
  Record r;
  r.set_field(field_label("x"), make_value(seq));
  r.set_tag(tag_label("b" + std::to_string(p)), 1);
  r.set_tag(tag_label("p"), p);
  r.set_tag(tag_label("k"), seq % kTags);
  r.set_tag(tag_label("s"), seq / kTags);
  r.set_tag(tag_label("n"), kDepth);
  return r;
}

std::uint64_t in_of(const NetworkStats& st, const std::string& name) {
  for (const auto& e : st.entities) {
    if (e.name == name) {
      return e.records_in;
    }
  }
  ADD_FAILURE() << "no entity named " << name;
  return 0;
}

std::uint64_t out_of(const NetworkStats& st, const std::string& name) {
  for (const auto& e : st.entities) {
    if (e.name == name) {
      return e.records_out;
    }
  }
  ADD_FAILURE() << "no entity named " << name;
  return 0;
}

}  // namespace

TEST(Routing, ManyProducersThroughSharedRouters) {
  constexpr int kPerProducer = 48;
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  for (unsigned workers = 1; workers <= 4; ++workers) {
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " inbox_capacity=" +
                   std::to_string(cap));
      std::mutex mu;
      std::map<std::string, std::uint64_t> traced;
      Options o;
      o.workers = workers;
      o.inbox_capacity = cap;
      o.trace = [&](const std::string& entity, const Record&) {
        const std::lock_guard<std::mutex> lock(mu);
        ++traced[entity];
      };
      Network net(many_producer_net(), std::move(o));
      std::vector<Session> sessions;
      for (int p = 0; p < kProducers; ++p) {
        sessions.push_back(net.open_session());
      }
      // One client thread per session: the parallel router is resolved on
      // all of them at once (inject), and on the dispatcher's worker.
      std::vector<std::vector<Record>> outs(kProducers);
      std::vector<std::thread> clients;
      for (int p = 0; p < kProducers; ++p) {
        clients.emplace_back([&, p] {
          Session& s = sessions[static_cast<std::size_t>(p)];
          for (int i = 0; i < kPerProducer; ++i) {
            s.input().inject(producer_record(p, i));
          }
          s.close();
          outs[static_cast<std::size_t>(p)] = s.output().collect();
        });
      }
      for (std::thread& t : clients) {
        t.join();
      }
      net.wait();

      for (int p = 0; p < kProducers; ++p) {
        const auto& out = outs[static_cast<std::size_t>(p)];
        ASSERT_EQ(out.size(), static_cast<std::size_t>(kPerProducer)) << "producer " << p;
        // Per-(producer, tag) FIFO, and with it exactly-once: each (p, k)
        // stream arrives as <s> = 0, 1, 2, ... with nothing missing.
        std::vector<std::int64_t> next(kTags, 0);
        for (const Record& r : out) {
          ASSERT_EQ(r.tag(tag_label("p")), p);
          ASSERT_TRUE(r.has_tag(tag_label("done")));
          const auto k = static_cast<std::size_t>(r.tag(tag_label("k")));
          ASSERT_LT(k, next.size());
          ASSERT_EQ(r.tag(tag_label("s")), next[k]) << "producer " << p << " <k>=" << k;
          ++next[k];
        }
      }

      // Every router's stats row counts exactly the records it routed.
      const NetworkStats st = net.stats();
      // The input dispatcher's transfers are all counted by the time the
      // network quiesces, mid-quantum flushes included (inbox cap 1
      // flushes after every record): one per forwarded record.
      std::uint64_t forwarded = 0;
      for (const SessionStats& row : st.session_stats) {
        forwarded += row.forwarded;
      }
      EXPECT_EQ(out_of(st, "input"), forwarded);
      EXPECT_EQ(in_of(st, "net/par"), kTotal);
      EXPECT_EQ(out_of(st, "net/par"), kTotal);
      EXPECT_EQ(in_of(st, "net/split"), kTotal);
      EXPECT_EQ(out_of(st, "net/split"), kTotal);
      for (int stage = 0; stage <= kDepth; ++stage) {
        const std::string name = "net/star/stage" + std::to_string(stage);
        EXPECT_EQ(in_of(st, name), kTotal) << name;
        EXPECT_EQ(out_of(st, name), kTotal) << name;
      }
      for (int rep = 0; rep < kDepth; ++rep) {
        const std::string name = "net/star/rep" + std::to_string(rep) + "/split";
        EXPECT_EQ(in_of(st, name), kTotal) << name;
        EXPECT_EQ(out_of(st, name), kTotal) << name;
      }
      // The trace reports every delivery the stats count, routers included
      // (every entity name is unique in this topology).
      std::uint64_t from_stats = 0;
      for (const auto& e : st.entities) {
        from_stats += e.records_in;
        EXPECT_EQ(traced[e.name], e.records_in) << e.name;
      }
      std::uint64_t from_trace = 0;
      for (const auto& [name, count] : traced) {
        from_trace += count;
      }
      EXPECT_EQ(from_trace, from_stats);
      net.check_protocol_invariants(true);
    }
  }
}

TEST(Routing, RouterFailureOnTheInjectThreadFailsTheNetwork) {
  // The parallel router is the entry, so the client's inject resolves it:
  // a record no branch accepts must not throw from inject(), must release
  // its live count, and must fail the network with the router's error.
  Network net(parallel(producer(0), producer(1)));
  Record stray;
  stray.set_field(field_label("x"), make_value(1));
  EXPECT_NO_THROW(net.input().inject(std::move(stray)));
  EXPECT_THROW(net.output().collect(), NetTypeError);
  EXPECT_THROW(net.wait(), NetTypeError);
  const NetworkStats st = net.stats();
  EXPECT_EQ(st.session_stats.at(0).live, 0);
  EXPECT_EQ(in_of(st, "net/par"), 1U);
  EXPECT_EQ(out_of(st, "net/par"), 0U);
}

TEST(Routing, ChainsLongerThanTheTrailsInlineRoomResolveInOneWalk) {
  // kDeep nested splits on <k>: a record passes kDeep routers (each
  // split's replica is the next split) before it reaches a box, more than
  // a RouteTrail holds inline. The client's inject, the input dispatcher
  // (a bounded entry refuses, so records are staged) and a box's send all
  // walk the whole chain, and every router counts and reports each record.
  constexpr int kDeep = 12;
  constexpr int kRecords = 20;
  const Net pass = box("pass", "(x, <k>) -> (x, <k>)", [](const BoxInput& in, BoxOutput& out) {
    out.out(1, in.field("x"), in.tag("k"));
  });
  Net nested = pass;
  for (int i = 0; i < kDeep; ++i) {
    nested = split(nested, "k");
  }
  for (const bool behind_box : {false, true}) {
    SCOPED_TRACE(behind_box ? "resolved by a box" : "resolved by the input");
    std::mutex mu;
    std::map<std::string, std::uint64_t> traced;
    Options o;
    o.inbox_capacity = 1;
    o.trace = [&](const std::string& entity, const Record&) {
      const std::lock_guard<std::mutex> lock(mu);
      ++traced[entity];
    };
    Network net(behind_box ? pass >> nested : nested, std::move(o));
    for (int i = 0; i < kRecords; ++i) {
      Record r;
      r.set_field(field_label("x"), make_value(i));
      r.set_tag(tag_label("k"), i % 2);
      net.input().inject(std::move(r));
    }
    net.input().close();
    ASSERT_EQ(net.output().collect().size(), static_cast<std::size_t>(kRecords));
    const NetworkStats st = net.stats();
    std::uint64_t routed = 0;
    for (const auto& e : st.entities) {
      if (e.name.ends_with("/split")) {
        routed += e.records_in;
        EXPECT_EQ(e.records_out, e.records_in) << e.name;
        EXPECT_EQ(traced[e.name], e.records_in) << e.name;
      }
    }
    EXPECT_EQ(routed, static_cast<std::uint64_t>(kDeep * kRecords));
    net.check_protocol_invariants(true);
  }
}

TEST(Routing, LintReportsWhoResolvesEachRouter) {
  // The hop_stream shape: eight best-match branch filters, then a split
  // into linear filter/box runs.
  Net branches = filter("{x, <b0>} -> {x, <t>=<b0>%4}");
  for (int i = 1; i < kProducers; ++i) {
    const std::string b = "<b" + std::to_string(i) + ">";
    branches = parallel(filter("{x, " + b + "} -> {x, <t>=" + b + "%4}"), branches);
  }
  const Net step = box("step", "(x) -> (x)",
                       [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  const Net hop = branches >> split(filter("{x} -> {x}") >> step >> filter("{x} -> {x}"), "t");
  const std::vector<RoutedEdge> edges = routed_edges(hop);
  ASSERT_EQ(edges.size(), 2U);
  EXPECT_EQ(edges[0].router, "net/par");
  EXPECT_EQ(edges[0].producers, std::vector<std::string>{"input"});
  EXPECT_EQ(edges[1].router, "net/split");
  std::vector<std::string> filters = {"net/parL/filter"};
  for (int depth = 1; depth < kProducers - 1; ++depth) {
    std::string path = "net";
    for (int i = 0; i < depth; ++i) {
      path += "/parR";
    }
    filters.push_back(path + "/parL/filter");
  }
  filters.push_back("net/parR/parR/parR/parR/parR/parR/parR/filter");
  EXPECT_EQ(edges[1].producers, filters);

  // The names are the ones instantiate gives the routers at run time.
  Network net(hop);
  Record r;
  r.set_field(field_label("x"), make_value(3));
  r.set_tag(tag_label("b5"), 6);
  net.input().inject(std::move(r));
  net.input().close();
  ASSERT_EQ(net.output().collect().size(), 1U);
  const NetworkStats st = net.stats();
  EXPECT_EQ(in_of(st, "net/par"), 1U);
  EXPECT_EQ(in_of(st, "net/split"), 1U);

  // Det variants keep their bracket: the entry resolves the router, and
  // the collector is what leaves the combinator.
  const std::vector<RoutedEdge> det =
      routed_edges(split_det(step, "t") >> parallel(step, filter("{y} -> {y}")));
  ASSERT_EQ(det.size(), 2U);
  EXPECT_EQ(det[0].router, "net/split");
  EXPECT_EQ(det[0].producers, std::vector<std::string>{"net/split-entry"});
  EXPECT_EQ(det[1].router, "net/par");
  EXPECT_EQ(det[1].producers, std::vector<std::string>{"net/split-coll"});
}
