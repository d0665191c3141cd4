/// Static signature inference over topologies, including flow-inheritance
/// propagation (the property the paper highlights for Fig. 2's filter).

#include <gtest/gtest.h>

#include "snet/check.hpp"
#include "snet/net.hpp"

using namespace snet;

namespace {
const BoxFn kNop = [](const BoxInput&, BoxOutput&) {};

Net mkbox(const std::string& name, const std::string& sig) {
  return box(name, sig, kNop);
}
}  // namespace

TEST(Check, BoxSignatureIsItsType) {
  const auto sig = infer(mkbox("foo", "(a,<b>) -> (c) | (c,d,<e>)"));
  EXPECT_EQ(sig.to_string(), "{a, <b>} -> {c} | {c, d, <e>}");
}

TEST(Check, SerialComposesWhenTypesConnect) {
  const auto n = mkbox("a", "(x) -> (y)") >> mkbox("b", "(y) -> (z)");
  const auto sig = infer(n);
  EXPECT_EQ(sig.input.to_string(), "{x}");
  EXPECT_EQ(sig.output.to_string(), "{z}");
}

TEST(Check, SerialMismatchRejected) {
  const auto n = mkbox("a", "(x) -> (y)") >> mkbox("b", "(q) -> (z)");
  EXPECT_THROW(infer(n), TypeCheckError);
}

TEST(Check, SerialAcceptsViaSubtyping) {
  // a produces {y,extra}; b needs only {y}: subtype acceptance.
  const auto n = mkbox("a", "(x) -> (y, extra)") >> mkbox("b", "(y) -> (z)");
  const auto sig = infer(n);
  // b's output inherits `extra` through flow inheritance.
  ASSERT_EQ(sig.output.variants().size(), 1U);
  EXPECT_EQ(sig.output.variants()[0], RecordType::of({"z", "extra"}));
}

TEST(Check, FlowInheritancePropagatesThroughBoxes) {
  // The §4 example: foo receives {a,<b>,d}; d flows onto variant {c} but
  // is discarded on {c,d,<e>} (d already present).
  const Net foo = mkbox("foo", "(a,<b>) -> (c) | (c,d,<e>)");
  const MultiType out =
      propagate(foo, MultiType({RecordType::of({"a", "d"}, {"b"})}));
  ASSERT_EQ(out.variants().size(), 2U);
  EXPECT_EQ(out.variants()[0], RecordType::of({"c", "d"}));
  EXPECT_EQ(out.variants()[1], RecordType::of({"c", "d"}, {"e"}));
}

TEST(Check, FilterInheritancePaperFig2) {
  // [{} -> {<k>=1}] on {board, opts}: result {board, opts, <k>} — "the
  // filter has the desired effect ... although its fields do not occur in
  // the filter."
  const Net f = filter("{} -> {<k>=1}");
  const MultiType out = propagate(f, MultiType({RecordType::of({"board", "opts"})}));
  ASSERT_EQ(out.variants().size(), 1U);
  EXPECT_EQ(out.variants()[0], RecordType::of({"board", "opts"}, {"k"}));
}

TEST(Check, ParallelUnionsBranches) {
  const auto n = parallel(mkbox("a", "(x) -> (u)"), mkbox("b", "(y) -> (v)"));
  const auto sig = infer(n);
  EXPECT_EQ(sig.input.variants().size(), 2U);
  EXPECT_EQ(sig.output.to_string(), "{u} | {v}");
}

TEST(Check, ParallelRoutesVariantsToBestBranch) {
  const auto n = parallel(mkbox("a", "(x) -> (u)"), mkbox("b", "(x, y) -> (v)"));
  // {x,y} scores higher on branch b; {x} only matches a.
  const MultiType out = propagate(
      n, MultiType({RecordType::of({"x"}), RecordType::of({"x", "y"})}));
  EXPECT_EQ(out.to_string(), "{u} | {v}");
}

TEST(Check, ParallelUnroutableVariantRejected) {
  const auto n = parallel(mkbox("a", "(x) -> (u)"), mkbox("b", "(y) -> (v)"));
  EXPECT_THROW(propagate(n, MultiType({RecordType::of({"z"})})), TypeCheckError);
}

TEST(Check, StarFig1Shape) {
  // solveOneLevel ** {<done>}.
  const Net sol = mkbox("solveOneLevel",
                        "(board, opts) -> (board, opts) | (board, <done>)");
  const auto sig = infer(star(sol, "{<done>}"));
  // Input: the replica's input; output: only the <done>-carrying variant
  // escapes the replicator.
  ASSERT_EQ(sig.input.variants().size(), 1U);
  EXPECT_EQ(sig.input.variants()[0], RecordType::of({"board", "opts"}));
  ASSERT_EQ(sig.output.variants().size(), 1U);
  EXPECT_EQ(sig.output.variants()[0], RecordType::of({"board"}, {"done"}));
}

TEST(Check, StarRejectsDeadVariants) {
  // Box output {q} neither matches {<done>} nor re-enters (input {x}).
  const Net bad = mkbox("bad", "(x) -> (q)");
  EXPECT_THROW(infer(star(bad, "{<done>}")), TypeCheckError);
}

TEST(Check, StarWithGuardKeepsVariantCirculating) {
  // With a guard, an exit-type-matching variant may also re-enter, so it
  // must be acceptable to the child as well.
  const Net b = mkbox("step", "(board, <level>) -> (board, <level>)");
  const auto sig = infer(star(b, Pattern::parse("{<level>} if <level> > 40")));
  ASSERT_EQ(sig.output.variants().size(), 1U);
  EXPECT_EQ(sig.output.variants()[0], RecordType::of({"board"}, {"level"}));
  // Guarded exits do not make the bare exit type an input variant.
  ASSERT_EQ(sig.input.variants().size(), 1U);
  EXPECT_EQ(sig.input.variants()[0], RecordType::of({"board"}, {"level"}));
}

TEST(Check, SplitRequiresTag) {
  const Net b = mkbox("w", "(x) -> (y)");
  const auto sig = infer(split(b, "k"));
  EXPECT_EQ(sig.input.to_string(), "{x, <k>}");
  // Propagating variants without the tag is an error.
  EXPECT_THROW(propagate(split(b, "k"), MultiType({RecordType::of({"x"})})),
               TypeCheckError);
}

TEST(Check, SyncSignature) {
  const auto n = sync({"{a}", "{b}"});
  const auto sig = infer(n);
  EXPECT_EQ(sig.input.variants().size(), 2U);
  // Output includes the merged variant {a,b}.
  bool has_merged = false;
  for (const auto& v : sig.output.variants()) {
    has_merged |= v == RecordType::of({"a", "b"});
  }
  EXPECT_TRUE(has_merged);
}

TEST(Check, SyncOutputListsEachVariantOnce) {
  // Both slot variants pass through, and each yields the same merged
  // variant {a, b}: the signature lists it once.
  EXPECT_EQ(infer(sync({"{a}", "{b}"})).output.to_string(), "{a} | {b} | {a, b}");
}

TEST(Check, DescribeRendersAlgebraicNotation) {
  const auto n = mkbox("A", "(x) -> (y)") >>
                 star(split(mkbox("B", "(y) -> (y) | (z, <done>)"), "t"),
                      "{<done>}");
  EXPECT_EQ(describe(n), "A .. ((B !! <t>) ** {<done>})");
  const auto d = parallel_det(mkbox("A", "(x) -> (y)"), mkbox("C", "(q) -> (y)"));
  EXPECT_EQ(describe(d), "(A | C)");
}

TEST(Check, NullOperandsRejected) {
  EXPECT_THROW(serial(nullptr, mkbox("a", "(x) -> (y)")), std::invalid_argument);
  EXPECT_THROW(infer(nullptr), TypeCheckError);
  EXPECT_THROW(sync({"{a}"}), std::invalid_argument) << "sync needs >= 2 patterns";
}
