/// Linear-segment fusion: a serial run of box/filter stages is cut into
/// segments holding at most one box, and every stage after a segment's
/// first runs inline in the first's quantum (Network::instantiate,
/// serial_segments). Fusion must be invisible to everything but the hop
/// count: per-stage names and counters, per-entity trace sequences, the
/// failure an inline stage raises, and det order all stay as they were —
/// and box→box edges and every edge leaving a combinator keep their hop.

#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "snet/network.hpp"
#include "snet/value.hpp"

using namespace snet;

namespace {

Record int_rec(int v) {
  Record r;
  r.set_field(field_label("x"), make_value(v));
  return r;
}

Record tagged_rec(int v, const std::string& tag, int t) {
  Record r = int_rec(v);
  r.set_tag(tag_label(tag), t);
  return r;
}

int x_of(const Record& r) { return value_as<int>(r.field("x")); }

Net adder(const std::string& name, int delta) {
  return box(name, "(x) -> (x)", [delta](const BoxInput& in, BoxOutput& out) {
    out.out(1, make_value(in.get<int>("x") + delta));
  });
}

/// `f >> b >> f >> b >> f`: the first filter mints <s1>, the middle one
/// fans every record out into <s2>=1 and <s2>=2, the last mints <s3>.
Net five_stage() {
  return filter("{x} -> {x, <s1>=1}") >> adder("inc", 1) >>
         filter("{x} -> {x, <s2>=1}; {x, <s2>=2}") >> adder("dbl", 100) >>
         filter("{x} -> {x, <s3>=1}");
}

/// The stats row of every entity named \p name, in adoption order.
std::vector<EntityStats> rows_named(const NetworkStats& st, const std::string& name) {
  std::vector<EntityStats> rows;
  for (const auto& e : st.entities) {
    if (e.name == name) {
      rows.push_back(e);
    }
  }
  return rows;
}

/// True when some entity named \p name is an inline stage.
bool any_fused(const NetworkStats& st, const std::string& name) {
  for (const auto& e : st.entities) {
    if (e.name == name && e.fused) {
      return true;
    }
  }
  return false;
}

std::vector<Record> run(Network& net, std::vector<Record> in) {
  for (Record& r : in) {
    net.input().inject(std::move(r));
  }
  auto out = net.output().collect();
  net.wait();
  return out;
}

/// Runs \p topology over x = 0..n-1 and returns the what() of the error
/// the client observes (inject, collect or wait rethrow the same one).
std::string failure_of(const Net& topology, int n) {
  Network net(topology);
  try {
    for (int i = 0; i < n; ++i) {
      net.input().inject(tagged_rec(i, "t", i));
    }
    net.output().collect();
    net.wait();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(Fusion, SegmentsHoldAtMostOneBox) {
  const auto segments = fused_segments(five_stage());
  ASSERT_EQ(segments.size(), 2U);
  EXPECT_EQ(segments[0],
            (std::vector<std::string>{"net/filter", "net/box:inc", "net/filter"}));
  EXPECT_EQ(segments[1], (std::vector<std::string>{"net/box:dbl", "net/filter"}));
}

TEST(Fusion, StagesKeepTheirNamesAndExactCounters) {
  constexpr int kRecords = 500;
  Network net(five_stage());
  std::vector<Record> in;
  for (int i = 0; i < kRecords; ++i) {
    in.push_back(int_rec(i));
  }
  const auto out = run(net, std::move(in));
  ASSERT_EQ(out.size(), 2U * kRecords);
  const NetworkStats st = net.stats();
  // Adoption runs right to left: f3, dbl, f2, inc, f1.
  const auto filters = rows_named(st, "net/filter");
  ASSERT_EQ(filters.size(), 3U);
  const auto inc = rows_named(st, "net/box:inc");
  const auto dbl = rows_named(st, "net/box:dbl");
  ASSERT_EQ(inc.size(), 1U);
  ASSERT_EQ(dbl.size(), 1U);
  const EntityStats& f3 = filters[0];
  const EntityStats& f2 = filters[1];
  const EntityStats& f1 = filters[2];
  EXPECT_EQ(f1.records_in, kRecords);
  EXPECT_EQ(f1.records_out, kRecords);
  EXPECT_EQ(inc[0].records_in, kRecords);
  EXPECT_EQ(inc[0].records_out, kRecords);
  EXPECT_EQ(f2.records_in, kRecords);
  EXPECT_EQ(f2.records_out, 2U * kRecords);
  EXPECT_EQ(dbl[0].records_in, 2U * kRecords);
  EXPECT_EQ(dbl[0].records_out, 2U * kRecords);
  EXPECT_EQ(f3.records_in, 2U * kRecords);
  EXPECT_EQ(f3.records_out, 2U * kRecords);
  EXPECT_EQ(st.records_in_containing("net/filter"), 4U * kRecords);
  EXPECT_EQ(st.records_in_containing("net/box:"), 3U * kRecords);
  // [f1 inc f2][dbl f3]: the heads keep their inbox.
  EXPECT_FALSE(f1.fused);
  EXPECT_TRUE(inc[0].fused);
  EXPECT_TRUE(f2.fused);
  EXPECT_FALSE(dbl[0].fused);
  EXPECT_TRUE(f3.fused);
}

TEST(Fusion, PerEntityTraceSequencesAreUnchanged) {
  // Entity names repeat (three "net/filter"s), so key each trace event by
  // name and label set: every stage of five_stage() sees its own set.
  constexpr int kRecords = 300;
  std::map<std::string, std::vector<int>> expected;
  for (int i = 0; i < kRecords; ++i) {
    expected["net/filter {x}"].push_back(i);
    expected["net/box:inc {x,<s1>}"].push_back(i);
    expected["net/filter {x,<s1>}"].push_back(i + 1);
    for (int k = 0; k < 2; ++k) {
      expected["net/box:dbl {x,<s1>,<s2>}"].push_back(i + 1);
      expected["net/filter {x,<s1>,<s2>}"].push_back(i + 101);
    }
    expected["output {x,<s1>,<s2>,<s3>}"].push_back(i + 101);
    expected["output {x,<s1>,<s2>,<s3>}"].push_back(i + 101);
  }
  std::mutex mu;
  std::map<std::string, std::vector<int>> seen;
  Options o;
  o.trace = [&](const std::string& entity, const Record& r) {
    std::string key = entity + " {x";
    for (const char* tag : {"s1", "s2", "s3"}) {
      if (r.has_tag(tag_label(tag))) {
        key += std::string(",<") + tag + ">";
      }
    }
    key += "}";
    const std::lock_guard<std::mutex> lock(mu);
    seen[key].push_back(x_of(r));
  };
  Network net(five_stage(), std::move(o));
  std::vector<Record> in;
  for (int i = 0; i < kRecords; ++i) {
    in.push_back(int_rec(i));
  }
  run(net, std::move(in));
  EXPECT_EQ(seen, expected);
}

TEST(Fusion, ThrowingInlineStageFailsTheNetworkWithTheSameError) {
  // A box and a guarded filter that fail on the record with <t> = 7; each
  // runs once as a segment head (alone) and once inline behind another
  // stage. The client must see the identical error either way.
  const auto boom = [] {
    return box("boom", "(x, <t>) -> (x, <t>)", [](const BoxInput& in, BoxOutput& out) {
      if (in.tag("t") == 7) {
        throw std::runtime_error("boom at t=7");
      }
      out.out(1, in.field("x"), in.tag("t"));
    });
  };
  const auto guarded = [] { return filter("{x, <t>} if <t> < 7 -> {x, <t>}"); };
  const auto pass = [] { return filter("{x, <t>} -> {x, <t>}"); };

  const std::string box_alone = failure_of(boom(), 10);
  EXPECT_EQ(box_alone, "boom at t=7");
  EXPECT_EQ(failure_of(pass() >> boom(), 10), box_alone);

  const std::string filter_alone = failure_of(guarded(), 10);
  EXPECT_NE(filter_alone.find("does not match filter pattern"), std::string::npos)
      << filter_alone;
  const Net keep = box("keep", "(x, <t>) -> (x, <t>)",
                       [](const BoxInput& in, BoxOutput& out) {
                         out.out(1, in.field("x"), in.tag("t"));
                       });
  EXPECT_EQ(failure_of(keep >> pass() >> guarded(), 10), filter_alone);
}

TEST(Fusion, DetSplitOverAFusedChainKeepsOrder) {
  constexpr int kRecords = 400;
  Network net(split_det(filter("{x, <t>} -> {x, <t>, <p>=1}") >> adder("inc", 1) >>
                            filter("{x, <t>, <p>} -> {x, <t>}"),
                        "t"));
  std::vector<Record> in;
  for (int i = 0; i < kRecords; ++i) {
    in.push_back(tagged_rec(i, "t", i % 4));
  }
  const auto out = run(net, std::move(in));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(x_of(out[static_cast<std::size_t>(i)]), i + 1) << "at " << i;
  }
  // Every replica instantiated later fuses the same way.
  const NetworkStats st = net.stats();
  for (int t = 0; t < 4; ++t) {
    const std::string pfx = "net/split[" + std::to_string(t) + "]";
    EXPECT_TRUE(any_fused(st, pfx + "/box:inc")) << pfx;
    EXPECT_FALSE(rows_named(st, pfx + "/filter").empty()) << pfx;
  }
}

TEST(Fusion, HopsThatAreNeverInlined) {
  const auto run_small = [](const Net& topology, std::vector<Record> in) {
    Network net(topology);
    run(net, std::move(in));
    return net.stats();
  };
  std::vector<Record> plain;
  std::vector<Record> tagged;
  for (int i = 0; i < 20; ++i) {
    plain.push_back(int_rec(i));
    tagged.push_back(tagged_rec(i, "t", i % 3));
  }
  const Net tail = filter("{x} -> {x}");

  // box→box keeps its hop (compute stages stay pipelined).
  NetworkStats st = run_small(adder("a", 1) >> adder("b", 1), plain);
  EXPECT_FALSE(any_fused(st, "net/box:a"));
  EXPECT_FALSE(any_fused(st, "net/box:b"));

  // A filter behind a parallel, a split or a star exit has several
  // producers (branches, replicas, stages): it keeps its inbox.
  st = run_small((adder("l", 1) | adder("r", 2)) >> tail, plain);
  EXPECT_FALSE(any_fused(st, "net/filter"));

  st = run_small(split(adder("s", 1), "t") >> filter("{x, <t>} -> {x}"), tagged);
  EXPECT_FALSE(any_fused(st, "net/filter"));

  const Net countdown = box("down", "(x) -> (x) | (x, <done>)",
                            [](const BoxInput& in, BoxOutput& out) {
                              const int x = in.get<int>("x");
                              if (x <= 0) {
                                out.out(2, make_value(x), 1);
                              } else {
                                out.out(1, make_value(x - 1));
                              }
                            });
  std::vector<Record> small;
  for (int i = 0; i < 4; ++i) {
    small.push_back(int_rec(i));
  }
  st = run_small(star(filter("{x} -> {x}") >> countdown, "{<done>}") >>
                     filter("{x, <done>} -> {x}"),
                 small);
  EXPECT_FALSE(any_fused(st, "net/filter"));
  // ... while the linear run inside every star replica does fuse.
  EXPECT_TRUE(any_fused(st, "net/star/rep0/box:down"));
}
