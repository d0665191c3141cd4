/// The S-Net runtime: boxes, filters, combinators, deterministic regions,
/// dynamic unfolding, flow inheritance at run time, quiescence and error
/// propagation.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "snet/network.hpp"
#include "snet/value.hpp"

using namespace snet;

namespace {

Record int_rec(std::string_view field, int v,
               std::initializer_list<std::pair<std::string_view, std::int64_t>> tags = {}) {
  Record r;
  r.set_field(field_label(field), make_value(v));
  for (const auto& [n, t] : tags) {
    r.set_tag(tag_label(n), t);
  }
  return r;
}

/// `(x) -> (x)` box adding \p delta to its integer payload.
Net adder(const std::string& name, int delta) {
  return box(name, "(x) -> (x)",
             [delta](const BoxInput& in, BoxOutput& out) {
               out.out(1, make_value(in.get<int>("x") + delta));
             });
}

void benchmark_guard(std::uint64_t v) {
  // Defeats optimisation of busy-wait loops without volatile writes.
  static std::atomic<std::uint64_t> sink{0};
  sink.store(v, std::memory_order_relaxed);
}

Options workers(unsigned w) {
  Options o;
  o.workers = w;
  return o;
}

std::multiset<int> xs_of(const std::vector<Record>& recs) {
  std::multiset<int> out;
  for (const auto& r : recs) {
    out.insert(value_as<int>(r.field("x")));
  }
  return out;
}

}  // namespace

TEST(Runtime, SingleBoxPipeline) {
  Network net(adder("inc", 1));
  for (int i = 0; i < 10; ++i) {
    net.input().inject(int_rec("x", i));
  }
  const auto out = net.output().collect();
  EXPECT_EQ(out.size(), 10U);
  EXPECT_EQ(xs_of(out), (std::multiset<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(Runtime, SerialCompositionPipelines) {
  Network net(adder("a", 1) >> adder("b", 10) >> adder("c", 100));
  net.input().inject(int_rec("x", 0));
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(value_as<int>(out[0].field("x")), 111);
}

TEST(Runtime, BoxMayEmitZeroOrManyRecords) {
  auto fan = box("fan", "(x) -> (x)",
                 [](const BoxInput& in, BoxOutput& out) {
                   const int n = in.get<int>("x");
                   for (int i = 0; i < n; ++i) {
                     out.out(1, make_value(i));
                   }
                 });
  Network net(fan);
  net.input().inject(int_rec("x", 0));  // emits nothing: record dies
  net.input().inject(int_rec("x", 3));
  const auto out = net.output().collect();
  EXPECT_EQ(out.size(), 3U);
}

TEST(Runtime, FlowInheritanceAtBoxes) {
  // Box declares (x) only; an extra field and tag must reappear on output.
  Network net(adder("inc", 1));
  Record r = int_rec("x", 1, {{"extra", 7}});
  r.set_field("payload", make_value(std::string("keep")));
  net.input().inject(std::move(r));
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].tag("extra"), 7);
  EXPECT_EQ(value_as<std::string>(out[0].field("payload")), "keep");
}

TEST(Runtime, FlowInheritanceDiscardsWhenLabelProduced) {
  auto b = box("b", "(x) -> (x, <t>)",
               [](const BoxInput& in, BoxOutput& out) {
                 out.out(1, in.field("x"), std::int64_t{99});
               });
  Network net(b);
  net.input().inject(int_rec("x", 1, {{"t", 5}}));
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].tag("t"), 99) << "produced label wins over inherited";
}

TEST(Runtime, BoxCannotSeeUndeclaredLabels) {
  auto nosy = box("nosy", "(x) -> (x)",
                  [](const BoxInput& in, BoxOutput& out) {
                    (void)in.get<int>("hidden");  // not declared -> error
                    out.out(1, make_value(0));
                  });
  Network net(nosy);
  Record r = int_rec("x", 1);
  r.set_field("hidden", make_value(42));
  net.input().inject(std::move(r));
  EXPECT_THROW(net.output().collect(), BoxError);
}

TEST(Runtime, FilterEntityAppliesSpec) {
  Network net(adder("inc", 1) >> filter("{x} -> {y=x, <m>=1}; {y=x, <m>=2}"));
  net.input().inject(int_rec("x", 4));
  auto out = net.output().collect();
  ASSERT_EQ(out.size(), 2U);
  std::multiset<std::int64_t> ms{out[0].tag("m"), out[1].tag("m")};
  EXPECT_EQ(ms, (std::multiset<std::int64_t>{1, 2}));
  EXPECT_EQ(value_as<int>(out[0].field("y")), 5);
}

TEST(Runtime, ParallelRoutesByBestMatch) {
  // Branch L wants {x}, branch R wants {x,<hi>}: tagged records must go R.
  auto l = box("L", "(x) -> (x, side)",
               [](const BoxInput& in, BoxOutput& out) {
                 out.out(1, in.field("x"), make_value(std::string("L")));
               });
  auto r = box("R", "(x, <hi>) -> (x, side)",
               [](const BoxInput& in, BoxOutput& out) {
                 out.out(1, in.field("x"), make_value(std::string("R")));
               });
  Network net(parallel(l, r));
  net.input().inject(int_rec("x", 1));
  net.input().inject(int_rec("x", 2, {{"hi", 1}}));
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 2U);
  for (const auto& rec : out) {
    const int x = value_as<int>(rec.field("x"));
    const auto side = value_as<std::string>(rec.field("side"));
    EXPECT_EQ(side, x == 1 ? "L" : "R");
  }
}

TEST(Runtime, ParallelTieAlternates) {
  // Identical branch types: non-deterministic choice — both branches must
  // see traffic under the alternating tie-break.
  std::atomic<int> l_count{0};
  std::atomic<int> r_count{0};
  auto l = box("L", "(x) -> (x)", [&](const BoxInput& in, BoxOutput& out) {
    l_count.fetch_add(1);
    out.out(1, in.field("x"));
  });
  auto r = box("R", "(x) -> (x)", [&](const BoxInput& in, BoxOutput& out) {
    r_count.fetch_add(1);
    out.out(1, in.field("x"));
  });
  Network net(parallel(l, r));
  for (int i = 0; i < 20; ++i) {
    net.input().inject(int_rec("x", i));
  }
  EXPECT_EQ(net.output().collect().size(), 20U);
  EXPECT_GT(l_count.load(), 0);
  EXPECT_GT(r_count.load(), 0);
  EXPECT_EQ(l_count.load() + r_count.load(), 20);
}

TEST(Runtime, ParallelNoMatchFailsNetwork) {
  Network net(parallel(adder("a", 1), adder("b", 2)));
  Record r;
  r.set_field("unrelated", make_value(0));
  net.input().inject(std::move(r));
  EXPECT_THROW(net.output().collect(), NetTypeError);
}

TEST(Runtime, StarUnfoldsOnDemandAndTapsExit) {
  // Counter box: decrements x; emits {x,<done>} at zero. The replicator
  // taps <done>-records out before every replica.
  auto dec = box("dec", "(x) -> (x) | (x, <done>)",
                 [](const BoxInput& in, BoxOutput& out) {
                   const int x = in.get<int>("x");
                   if (x <= 1) {
                     out.out(2, make_value(0), std::int64_t{1});
                   } else {
                     out.out(1, make_value(x - 1));
                   }
                 });
  Network net(star(dec, "{<done>}"));
  net.input().inject(int_rec("x", 5));
  net.input().inject(int_rec("x", 2));
  const auto out = net.output().collect();
  EXPECT_EQ(out.size(), 2U);
  // Unfolding is demand-driven: the deepest chain (5 steps) bounds stages.
  const auto stats = net.stats();
  const auto stages = stats.count_containing("/stage");
  EXPECT_GE(stages, 5U);
  EXPECT_LE(stages, 7U) << "one tap per materialised replica plus the last";
}

TEST(Runtime, StarRecordMatchingExitImmediatelyBypasses) {
  auto dec = box("dec", "(x) -> (x) | (x, <done>)",
                 [](const BoxInput& in, BoxOutput& out) {
                   out.out(2, in.field("x"), std::int64_t{1});
                 });
  Network net(star(dec, "{<done>}"));
  Record pre = int_rec("x", 9, {{"done", 1}});
  net.input().inject(std::move(pre));
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(value_as<int>(out[0].field("x")), 9) << "never touched a replica";
  EXPECT_EQ(net.stats().count_containing("box:dec"), 0U);
}

TEST(Runtime, SplitRoutesSameTagToSameReplica) {
  // Each replica instance is a distinct entity; records with equal <k>
  // must hit the same instance.
  auto ident = box("w", "(x) -> (x)",
                   [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  Network net(split(ident, "k"));
  for (int i = 0; i < 12; ++i) {
    net.input().inject(int_rec("x", i, {{"k", i % 3}}));
  }
  EXPECT_EQ(net.output().collect().size(), 12U);
  const auto stats = net.stats();
  EXPECT_EQ(stats.count_containing("box:w"), 3U) << "exactly one replica per tag value";
  for (const auto& e : stats.entities) {
    if (e.name.find("box:w") != std::string::npos) {
      EXPECT_EQ(e.records_in, 4U) << e.name;
    }
  }
}

TEST(Runtime, SplitMissingTagFailsNetwork) {
  Network net(split(adder("a", 0), "k"));
  net.input().inject(int_rec("x", 1));
  EXPECT_THROW(net.output().collect(), NetTypeError);
}

TEST(Runtime, DetParallelPreservesInputOrder) {
  // Slow left branch vs fast right; deterministic merge must still emit in
  // injection order.
  auto slow = box("slow", "(x, <left>) -> (x)",
                  [](const BoxInput& in, BoxOutput& out) {
                    const int x = in.get<int>("x");
                    // Busy work to skew timing.
                    // 64-bit: the sum of 0..199999 overflows an int.
                    std::uint64_t sink = 0;
                    for (int i = 0; i < 200000; ++i) {
                      sink += i;
                    }
                    benchmark_guard(sink);
                    out.out(1, make_value(x));
                  });
  auto fast = box("fast", "(x) -> (x)",
                  [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  Network net(parallel_det(slow, fast), workers(4));
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      net.input().inject(int_rec("x", i, {{"left", 1}}));
    } else {
      net.input().inject(int_rec("x", i));
    }
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 12U);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(value_as<int>(out[static_cast<std::size_t>(i)].field("x")), i)
        << "deterministic merge must restore input order";
  }
}

TEST(Runtime, NondetParallelDoesNotGuaranteeOrderButDeliversAll) {
  auto l = adder("l", 0);
  auto r = adder("r", 0);
  Network net(parallel(l, r), workers(4));
  for (int i = 0; i < 50; ++i) {
    net.input().inject(int_rec("x", i));
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 50U);
  std::multiset<int> expect;
  for (int i = 0; i < 50; ++i) {
    expect.insert(i);
  }
  EXPECT_EQ(xs_of(out), expect);
}

TEST(Runtime, DetParallelGroupsKeepMultiEmissionsTogether) {
  // Left duplicates each record; det merge must keep duplicates adjacent
  // and groups in order.
  auto dup = box("dup", "(x, <left>) -> (x)",
                 [](const BoxInput& in, BoxOutput& out) {
                   out.out(1, in.field("x"));
                   out.out(1, in.field("x"));
                 });
  auto one = box("one", "(x) -> (x)",
                 [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  Network net(parallel_det(dup, one), workers(4));
  net.input().inject(int_rec("x", 0, {{"left", 1}}));
  net.input().inject(int_rec("x", 1));
  net.input().inject(int_rec("x", 2, {{"left", 1}}));
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 5U);
  std::vector<int> xs;
  for (const auto& r : out) {
    xs.push_back(value_as<int>(r.field("x")));
  }
  EXPECT_EQ(xs, (std::vector<int>{0, 0, 1, 2, 2}));
}

TEST(Runtime, DetSplitOrdersGroups) {
  auto ident = box("w", "(x) -> (x)",
                   [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  Network net(split_det(ident, "k"), workers(4));
  for (int i = 0; i < 20; ++i) {
    net.input().inject(int_rec("x", i, {{"k", i % 4}}));
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 20U);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(value_as<int>(out[static_cast<std::size_t>(i)].field("x")), i);
  }
}

TEST(Runtime, DetStarOrdersGroups) {
  auto dec = box("dec", "(x) -> (x) | (x, <done>)",
                 [](const BoxInput& in, BoxOutput& out) {
                   const int x = in.get<int>("x");
                   if (x <= 0) {
                     out.out(2, make_value(0), std::int64_t{1});
                   } else {
                     out.out(1, make_value(x - 1));
                   }
                 });
  Network net(star_det(dec, "{<done>}"), workers(4));
  // Different depths: without det, short chains would overtake long ones.
  const std::vector<int> depths{9, 1, 5, 0, 7};
  for (std::size_t i = 0; i < depths.size(); ++i) {
    net.input().inject(int_rec("x", depths[i], {{"idx", static_cast<std::int64_t>(i)}}));
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), depths.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].tag("idx"), static_cast<std::int64_t>(i));
  }
}

TEST(Runtime, SyncCellJoinsThenIdentity) {
  Network net(sync({"{a}", "{b}"}));
  Record ra;
  ra.set_field("a", make_value(1));
  Record rb;
  rb.set_field("b", make_value(2));
  net.input().inject(std::move(ra));
  net.input().inject(std::move(rb));
  Record rc;
  rc.set_field("a", make_value(3));
  net.input().inject(std::move(rc));  // after firing: identity
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), 2U);
  // One merged record {a,b}, one passed-through {a}.
  const bool first_merged = out[0].has_field("a") && out[0].has_field("b");
  const Record& merged = first_merged ? out[0] : out[1];
  const Record& passed = first_merged ? out[1] : out[0];
  EXPECT_TRUE(merged.has_field("a"));
  EXPECT_TRUE(merged.has_field("b"));
  EXPECT_TRUE(passed.has_field("a"));
  EXPECT_FALSE(passed.has_field("b"));
}

TEST(Runtime, ErrorsInBoxesSurfaceAtCollect) {
  auto bomb = box("bomb", "(x) -> (x)",
                  [](const BoxInput&, BoxOutput&) { throw std::runtime_error("kaboom"); });
  Network net(bomb);
  net.input().inject(int_rec("x", 1));
  EXPECT_THROW(net.output().collect(), std::runtime_error);
}

TEST(Runtime, InjectAfterCloseRejected) {
  Network net(adder("a", 1));
  net.input().close();
  EXPECT_THROW(net.input().inject(int_rec("x", 1)), std::logic_error);
}

TEST(Runtime, EmptyNetworkQuiescesImmediately) {
  Network net(adder("a", 1));
  net.input().close();
  net.wait();
  EXPECT_FALSE(net.output().next().has_value());
}

TEST(Runtime, TraceObserverSeesEveryDelivery) {
  std::atomic<int> deliveries{0};
  Options opts;
  opts.trace = [&](const std::string&, const Record&) { deliveries.fetch_add(1); };
  Network net(adder("a", 1) >> adder("b", 1), opts);
  net.input().inject(int_rec("x", 0));
  net.output().collect();
  // At least: entry box, second box, output entity.
  EXPECT_GE(deliveries.load(), 3);
}

TEST(Runtime, StatsCountersAreConsistent) {
  Network net(adder("a", 1) >> adder("b", 1));
  for (int i = 0; i < 5; ++i) {
    net.input().inject(int_rec("x", i));
  }
  net.output().collect();
  const auto stats = net.stats();
  EXPECT_EQ(stats.injected, 5U);
  EXPECT_EQ(stats.produced, 5U);
  EXPECT_GE(stats.peak_live, 1);
  EXPECT_EQ(stats.records_in_containing("box:a"), 5U);
  EXPECT_EQ(stats.records_in_containing("box:b"), 5U);
}

// Stress: a deep pipeline with fan-out under a multi-worker scheduler.
class RuntimeStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(RuntimeStress, PipelineWithFanOutDeliversExactly) {
  auto duplicate = box("dup", "(x) -> (x)",
                       [](const BoxInput& in, BoxOutput& out) {
                         out.out(1, in.field("x"));
                         out.out(1, in.field("x"));
                       });
  // x2 fan-out at each of 3 stages: 8 outputs per input.
  Network net(duplicate >> duplicate >> duplicate,
              workers(GetParam()));
  constexpr int kInputs = 200;
  for (int i = 0; i < kInputs; ++i) {
    net.input().inject(int_rec("x", i));
  }
  const auto out = net.output().collect();
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kInputs * 8));
}

INSTANTIATE_TEST_SUITE_P(Workers, RuntimeStress, ::testing::Values(1U, 2U, 4U, 8U));
