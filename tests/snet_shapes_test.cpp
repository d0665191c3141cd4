/// Shape-interning invariants: interning stability under add/remove
/// round-trips, bloom-mask consistency and false-positive fallback, and
/// route-table memoization vs. fresh matching (property-style loops over
/// randomized label sets).

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "snet/record.hpp"
#include "snet/router.hpp"
#include "snet/rtypes.hpp"
#include "snet/shapes.hpp"
#include "snet/value.hpp"

namespace snet {
namespace {

// A fixed pool of labels shared by the property loops (interning is
// process-wide, so reusing names across tests is intentional).
std::vector<Label> label_pool() {
  std::vector<Label> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(field_label("shp_f" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    pool.push_back(tag_label("shp_t" + std::to_string(i)));
  }
  return pool;
}

void add_label(Record& r, Label l) {
  if (l.kind == LabelKind::Field) {
    r.set_field(l, make_value(1));
  } else {
    r.set_tag(l, 1);
  }
}

void remove_label(Record& r, Label l) {
  if (l.kind == LabelKind::Field) {
    r.remove_field(l);
  } else {
    r.remove_tag(l);
  }
}

/// The matcher the shapes replaced: a per-label presence scan.
bool naive_matches(const RecordType& t, const Record& r) {
  return std::all_of(t.labels().begin(), t.labels().end(),
                     [&](Label l) { return r.has(l); });
}

TEST(Shapes, EmptyRecordHasShapeZero) {
  const Record r;
  EXPECT_EQ(r.shape(), 0U);
  EXPECT_EQ(r.shape_mask(), 0U);
}

TEST(Shapes, SameLabelSetSameShapeRegardlessOfOrder) {
  Record a;
  a.set_field("shp_f0", make_value(1));
  a.set_field("shp_f1", make_value(2));
  a.set_tag("shp_t0", 3);

  Record b;
  b.set_tag("shp_t0", 9);
  b.set_field("shp_f1", make_value(8));
  b.set_field("shp_f0", make_value(7));

  EXPECT_NE(a.shape(), 0U);
  EXPECT_EQ(a.shape(), b.shape());
  EXPECT_EQ(a.shape_mask(), b.shape_mask());
}

TEST(Shapes, InterningStableUnderAddRemoveRoundTrip) {
  Record r;
  r.set_field("shp_f0", make_value(1));
  r.set_tag("shp_t0", 2);
  const ShapeId before = r.shape();
  const std::uint64_t mask_before = r.shape_mask();

  r.set_field("shp_f1", make_value(3));
  EXPECT_NE(r.shape(), before);
  r.remove_field(field_label("shp_f1"));
  EXPECT_EQ(r.shape(), before);
  EXPECT_EQ(r.shape_mask(), mask_before);

  // Overwriting an existing label is a no-op transition.
  r.set_field("shp_f0", make_value(42));
  EXPECT_EQ(r.shape(), before);
  // Removing an absent label too.
  r.remove_tag(tag_label("shp_t5"));
  EXPECT_EQ(r.shape(), before);
}

TEST(Shapes, MaskIsUnionOfLabelBits) {
  Record r;
  std::uint64_t expect = 0;
  for (const Label l : label_pool()) {
    add_label(r, l);
    expect |= label_bit(l);
    EXPECT_EQ(r.shape_mask(), expect);
  }
  EXPECT_EQ(ShapeRegistry::instance().mask(r.shape()), expect);
}

TEST(Shapes, ShapeTracksRandomMutationSequences) {
  const std::vector<Label> pool = label_pool();
  std::mt19937 rng(20260730);
  Record r;
  std::set<Label> model;
  for (int step = 0; step < 3000; ++step) {
    const Label l = pool[rng() % pool.size()];
    if (rng() % 2 == 0) {
      add_label(r, l);
      model.insert(l);
    } else {
      remove_label(r, l);
      model.erase(l);
    }
    // The record's incremental shape must equal interning its labels fresh.
    const ShapeRef fresh = ShapeRegistry::instance().intern(
        std::vector<Label>(model.begin(), model.end()));
    ASSERT_EQ(r.shape(), fresh.id) << "step " << step;
    ASSERT_EQ(r.shape_mask(), fresh.mask) << "step " << step;
    // And the registry must reproduce the exact label set.
    const std::vector<Label> ls = ShapeRegistry::instance().labels(r.shape());
    ASSERT_TRUE(std::equal(ls.begin(), ls.end(), model.begin(), model.end()))
        << "step " << step;
  }
}

TEST(Shapes, MatchEquivalenceRandomized) {
  const std::vector<Label> pool = label_pool();
  std::mt19937 rng(4242);
  for (int iter = 0; iter < 2000; ++iter) {
    Record r;
    for (const Label l : pool) {
      if (rng() % 2 == 0) {
        add_label(r, l);
      }
    }
    std::vector<Label> type_labels;
    for (const Label l : pool) {
      if (rng() % 3 == 0) {
        type_labels.push_back(l);
      }
    }
    const RecordType t(std::move(type_labels));
    ASSERT_EQ(t.matches(r), naive_matches(t, r)) << "iter " << iter;
  }
}

TEST(Shapes, MaskFalsePositiveFallsBackToSubsetTest) {
  // Find two distinct field labels sharing a bloom bit: the mask cannot
  // distinguish them, so matching must fall through to the exact test.
  const Label a = field_label("shp_fp_base");
  Label b{};
  bool found = false;
  for (int i = 0; i < 4096 && !found; ++i) {
    b = field_label("shp_fp_cand" + std::to_string(i));
    found = label_bit(b) == label_bit(a);
  }
  ASSERT_TRUE(found) << "no bloom collision in 4096 probes (64 buckets)";

  Record r;
  r.set_field(a, make_value(1));
  const RecordType needs_b({b});
  // Mask reject passes (identical bits) — the exact test must still say no.
  ASSERT_EQ(needs_b.shape_mask() & ~r.shape_mask(), 0U);
  EXPECT_FALSE(needs_b.matches(r));
  // And the memoized verdict must be stable on re-query.
  EXPECT_FALSE(needs_b.matches(r));
}

TEST(Shapes, RouterAgreesWithFreshMatchScores) {
  const std::vector<Label> pool = label_pool();
  std::mt19937 rng(777);
  for (int round = 0; round < 200; ++round) {
    // Random 4-branch inputs, 1-2 variants each.
    std::vector<MultiType> inputs;
    for (int bi = 0; bi < 4; ++bi) {
      MultiType mt;
      const int variants = 1 + static_cast<int>(rng() % 2);
      for (int v = 0; v < variants; ++v) {
        std::vector<Label> ls;
        for (const Label l : pool) {
          if (rng() % 3 == 0) {
            ls.push_back(l);
          }
        }
        mt.add(RecordType(std::move(ls)));
      }
      inputs.push_back(std::move(mt));
    }
    detail::ParallelRouter router{inputs};
    for (int rec = 0; rec < 20; ++rec) {
      Record r;
      for (const Label l : pool) {
        if (rng() % 2 == 0) {
          add_label(r, l);
        }
      }
      // Fresh (unmemoized) argmax set.
      int best = -1;
      for (const auto& mt : inputs) {
        best = std::max(best, mt.match_score(r));
      }
      const std::size_t chosen = router.route(r);
      if (best < 0) {
        ASSERT_EQ(chosen, detail::ParallelRouter::npos);
      } else {
        ASSERT_NE(chosen, detail::ParallelRouter::npos);
        ASSERT_EQ(inputs[chosen].match_score(r), best)
            << "router picked a non-best branch";
      }
    }
  }
}

TEST(Shapes, RouterRotatesTies) {
  const MultiType both{RecordType::of({"shp_f0"})};
  detail::ParallelRouter router{{both, both}};
  Record r;
  r.set_field("shp_f0", make_value(1));
  const std::size_t first = router.route(r);
  const std::size_t second = router.route(r);
  const std::size_t third = router.route(r);
  EXPECT_NE(first, second);
  EXPECT_EQ(first, third);
}

// Adversarial shape churn: route tables are capped, evict wholesale on
// overflow, and under sustained churn disable caching — decisions stay
// correct either way, and memory stays bounded (ROADMAP follow-up, PR 2).

namespace {

/// A record with a distinct label subset per \p seed (12 pool labels →
/// 4096 distinct shapes, far beyond the small caps used below).
Record churn_record(const std::vector<Label>& pool, unsigned seed) {
  Record r;
  r.set_field("shp_f0", make_value(1));  // keep every record matchable
  for (std::size_t i = 1; i < pool.size(); ++i) {
    if ((seed >> (i - 1)) & 1U) {
      add_label(r, pool[i]);
    }
  }
  return r;
}

}  // namespace

TEST(Shapes, RouterTableStaysBoundedUnderShapeChurn) {
  const std::vector<Label> pool = label_pool();
  const MultiType input{RecordType::of({"shp_f0"})};
  constexpr std::size_t kCap = 8;
  detail::ParallelRouter router{{input}, kCap};
  for (unsigned seed = 0; seed < 2048; ++seed) {
    Record r = churn_record(pool, seed);
    ASSERT_EQ(router.route(r), 0U);  // still routes correctly every time
    ASSERT_LE(router.table_size(), kCap);
  }
  // 2048 distinct shapes through a cap of 8 blows through every reset:
  // the router must have fallen back to uncached matching.
  EXPECT_TRUE(router.caching_disabled());
  EXPECT_EQ(router.table_size(), 0U);
  // Still correct after the fallback, including the no-match path.
  Record miss;
  miss.set_tag("shp_t0", 1);
  EXPECT_EQ(router.route(miss), detail::ParallelRouter::npos);
}

TEST(Shapes, RouterEvictsAndRecoversUnderMildDrift) {
  const MultiType input{RecordType::of({"shp_f0"})};
  constexpr std::size_t kCap = 16;
  detail::ParallelRouter router{{input}, kCap};
  const std::vector<Label> pool = label_pool();
  // One eviction's worth of drift, then a steady state: caching must
  // survive (resets below the churn threshold) and keep memoizing.
  for (unsigned seed = 0; seed < kCap + 4; ++seed) {
    ASSERT_EQ(router.route(churn_record(pool, seed)), 0U);
  }
  EXPECT_FALSE(router.caching_disabled());
  EXPECT_GE(router.resets(), 1U);
  Record steady = churn_record(pool, 1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(router.route(steady), 0U);
  }
  EXPECT_LE(router.table_size(), kCap);
}

TEST(Shapes, ShapeMemoStaysBoundedAndFallsBackUnderChurn) {
  const std::vector<Label> pool = label_pool();
  const RecordType want = RecordType::of({"shp_f0"});
  constexpr std::size_t kCap = 8;
  detail::ShapeMemo<bool> memo(kCap);
  int fills = 0;
  for (unsigned seed = 0; seed < 2048; ++seed) {
    Record r = churn_record(pool, seed);
    const bool got = memo.get_or(r.shape(), [&] {
      ++fills;
      return naive_matches(want, r);
    });
    ASSERT_EQ(got, naive_matches(want, r));
    ASSERT_LE(memo.size(), kCap);
  }
  EXPECT_TRUE(memo.caching_disabled());
  EXPECT_GT(fills, 0);
  // Disabled caching means every call fills — but stays correct.
  Record probe = churn_record(pool, 3);
  const int before = fills;
  memo.get_or(probe.shape(), [&] {
    ++fills;
    return naive_matches(want, probe);
  });
  EXPECT_EQ(fills, before + 1);
}

TEST(Shapes, ShapeMemoFreesWhatItReplaces) {
  // An entity's memo has no other reader, so neither growth nor an
  // eviction may leave the replaced table allocated: at any point it holds
  // one table, at most twice its entry cap (load <= 1/2), however often
  // shape churn grows and evicts it.
  const std::vector<Label> pool = label_pool();
  const RecordType want = RecordType::of({"shp_f0"});
  constexpr std::size_t kCap = 64;
  detail::ShapeMemo<bool> memo(kCap);
  for (unsigned seed = 0; !memo.caching_disabled(); ++seed) {
    ASSERT_LT(seed, 2048U);
    Record r = churn_record(pool, seed);
    memo.get_or(r.shape(), [&] { return naive_matches(want, r); });
    ASSERT_LE(memo.slots_held(), 2 * kCap) << "after " << seed + 1 << " shapes";
  }
  EXPECT_EQ(memo.slots_held(), 0U);
}

}  // namespace
}  // namespace snet
