/// Batched-quantum pipeline: emission buffers, the push_all flush path and
/// the coalesced live/det delta accounting must be invisible to clients —
/// same records as a per-record reference, same per-stream FIFO order, same
/// det order — under backpressure stalls that park an entity mid-batch.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snet/network.hpp"
#include "snet/value.hpp"

using namespace snet;

namespace {

Record int_rec(int v, std::initializer_list<std::pair<std::string_view, std::int64_t>> tags = {}) {
  Record r;
  r.set_field(field_label("x"), make_value(v));
  for (const auto& [n, t] : tags) {
    r.set_tag(tag_label(n), t);
  }
  return r;
}

/// `(x) -> (x)` box burning ~\p spin_iters of CPU per record.
Net slow_box(const std::string& name, int spin_iters) {
  return box(name, "(x) -> (x)",
             [spin_iters](const BoxInput& in, BoxOutput& out) {
               volatile unsigned sink = 0;
               for (int i = 0; i < spin_iters; ++i) {
                 sink = sink + static_cast<unsigned>(i);
               }
               out.out(1, in.field("x"));
             });
}

std::vector<int> xs_in_order(const std::vector<Record>& out) {
  std::vector<int> xs;
  xs.reserve(out.size());
  for (const auto& r : out) {
    xs.push_back(value_as<int>(r.field("x")));
  }
  return xs;
}

}  // namespace

TEST(Batch, StallMidBatchPreservesOrderAndLosesNothing) {
  // A tiny inbox bound under a fast producer forces the upstream entity to
  // park with records still staged in its emission buffers; the flush
  // before the stall plus the batch-remainder rule must keep the stream's
  // FIFO order intact and lose nothing.
  constexpr int kRecords = 3000;
  Options opts;
  opts.workers = 2;
  opts.inbox_capacity = 4;
  opts.quantum = 64;  // quantum >> inbox bound: stalls land mid-batch
  Network net(slow_box("a", 50) >> slow_box("b", 400), std::move(opts));
  for (int i = 0; i < kRecords; ++i) {
    net.input().inject(int_rec(i));
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  const auto xs = xs_in_order(out);
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(xs[static_cast<std::size_t>(i)], i) << "FIFO order broken at " << i;
  }
  EXPECT_GT(net.stats().suspensions, 0U)
      << "bound never engaged: the test did not exercise a mid-batch stall";
}

TEST(Batch, DetOrderHoldsUnderCoalescedDeltas) {
  // Deterministic merge depends on det-group counts reaching zero in the
  // right order; the batched path applies those counts as coalesced
  // add/sub deltas per quantum. A slow left branch and a bounded det
  // region (spill engaged) must still restore injection order.
  auto slow = box("slowL", "(x, <left>) -> (x)",
                  [](const BoxInput& in, BoxOutput& out) {
                    volatile unsigned sink = 0;
                    for (int i = 0; i < 100000; ++i) {
                      sink = sink + static_cast<unsigned>(i);
                    }
                    out.out(1, in.field("x"));
                  });
  auto fast = box("fastR", "(x) -> (x)",
                  [](const BoxInput& in, BoxOutput& out) { out.out(1, in.field("x")); });
  Options opts;
  opts.workers = 4;
  opts.det_capacity = 8;  // small interior bound: collector spills mid-run
  Network net(parallel_det(std::move(slow), std::move(fast)), std::move(opts));
  constexpr int kRecords = 60;
  for (int i = 0; i < kRecords; ++i) {
    if (i % 3 == 0) {
      net.input().inject(int_rec(i, {{"left", 1}}));
    } else {
      net.input().inject(int_rec(i));
    }
  }
  const auto out = net.output().collect();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kRecords));
  const auto xs = xs_in_order(out);
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(xs[static_cast<std::size_t>(i)], i)
        << "det merge out of order under coalesced deltas";
  }
}

TEST(Batch, OutputsMatchPerRecordFilterReference) {
  // One topology (a 4-branch parallel of dual-output filters with disjoint
  // branch types — no non-det ties, so the output multiset is fully
  // determined). The expected multiset is computed outside the network:
  // each input through its own leaf filter's uncompiled FilterSpec::apply.
  constexpr int kBranches = 4;
  constexpr int kRecords = 2000;
  std::vector<Net> leaves;
  Net branches;
  for (int i = 0; i < kBranches; ++i) {
    const std::string f = "f" + std::to_string(i);
    Net leaf = filter("[{" + f + ", payload} -> {y=" + f +
                      ", payload}; {y2=" + f + ", payload, <copy>=1}]");
    leaves.push_back(leaf);
    branches = branches ? parallel(std::move(branches), std::move(leaf))
                        : std::move(leaf);
  }
  Options opts;
  opts.workers = 2;
  Network net(std::move(branches), std::move(opts));
  std::vector<std::string> expected;
  for (int i = 0; i < kRecords; ++i) {
    Record r;
    r.set_field(field_label("f" + std::to_string(i % kBranches)), make_value(i));
    r.set_field(field_label("payload"), make_value(i * 31));
    for (const Record& out : leaves[static_cast<std::size_t>(i % kBranches)]->filter->apply(r)) {
      expected.push_back(out.to_string());
    }
    net.input().inject(std::move(r));
  }
  std::vector<std::string> texts;
  for (const auto& r : net.output().collect()) {
    texts.push_back(r.to_string());
  }
  std::sort(texts.begin(), texts.end());
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(texts.size(), static_cast<std::size_t>(2 * kRecords));
  EXPECT_EQ(texts, expected) << "batched pipeline changed the output set";
}
