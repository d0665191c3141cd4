#ifndef SNETSAC_SACPP_WITH_LOOP_HPP
#define SNETSAC_SACPP_WITH_LOOP_HPP

/// \file with_loop.hpp
/// SaC with-loop array comprehensions (paper, Section 2).
///
/// A with-loop maps a set of rectangular *generators* — each an index range
/// `lower_bound <= idx_vec < upper_bound` (optionally with SaC's step/width
/// striding) associated with a body expression — onto one of three
/// operators:
///
///  * `genarray(shape, default)` — build a new array of `shape`; elements
///    covered by no generator take the default value;
///  * `modarray(src)` — build an array shaped like `src`; uncovered
///    elements copy `src`;
///  * `fold(op, neutral)` — reduce the body values of all generator
///    elements with an associative operator.
///
/// "We deliberately do not define any order on these index sets" — element
/// evaluation order is unspecified, which is what licenses data-parallel
/// execution. When generators overlap, *generator* order does matter: a
/// later generator overwrites an earlier one ("the array's value at index
/// location [3] ... is set to 2 rather than to 1").
///
/// The engine is *compiled*: the unit of execution is the contiguous row
/// run of a generator. Small sequential with-loops walk each generator's
/// rows with `walk_runs` (segment_plan.hpp), in generator order; larger
/// ones are decomposed into a SegmentPlan (overlap resolved at setup, so no
/// cell is written twice) whose segment ranges executor chunking
/// distributes. `gen` takes its body as a template parameter, keeps it in
/// a `std::function` and adds one *row runner* per body type: a function
/// pointer that gets the body back from the `std::function` and loops over
/// the run's cells with the body inlined. The engine pays one indirect
/// call per row — `std::fill` for constant generators — and `fold` takes
/// its combine as a template parameter too, so the combine inlines into
/// the loop over the runner's output. The runner's `iv` is a local `Index`
/// of the evaluating call (inline up to rank 4), so a body evaluation
/// allocates nothing and a body that runs a with-loop of its own
/// (`is_stuck` runs `options_at`) simply has its own. The tests compare
/// the engine against an interpreted per-element one
/// (tests/with_loop_reference.hpp), which calls each body through its
/// `std::function`, cell by cell, and reaches the generator list through
/// the `testing::ReferenceEngine` friend hook below.
///
/// `Fused` (below) extends the compiled engine across *chains* of
/// with-loops: elementwise consumers (map / zip_with / fold) run inside the
/// producer's segment pass with zero intermediate arrays.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "sacpp/array.hpp"
#include "sacpp/context.hpp"
#include "sacpp/segment_plan.hpp"

namespace sac {

namespace testing {
/// The interpreted with-loop engine, the test oracle; defined only in
/// tests/with_loop_reference.hpp.
struct ReferenceEngine;
}  // namespace testing

namespace detail {

/// Post-transform stages for fused with-loop chains. Each stage maps
/// `(value, linear_offset) -> value'`; composition nests statically so the
/// whole chain inlines into the producer's segment loop.
struct IdentityStage {
  template <class V>
  V operator()(V v, std::int64_t) const {
    return v;
  }
};

template <class F>
struct MapStage {
  F f;
  template <class V>
  auto operator()(V v, std::int64_t) const {
    return f(v);
  }
};

/// Zips the chain value with a second array's cell at the same linear
/// offset. Holds the array by value (keeps the COW buffer alive; the cached
/// raw pointer stays valid because our copy is never mutated).
template <class U, class F>
struct ZipStage {
  Array<U> other;
  const storage_t<U>* p;
  F f;
  template <class V>
  auto operator()(V v, std::int64_t i) const {
    return f(v, static_cast<U>(p[i]));
  }
};

template <class P1, class P2>
struct ComposedStage {
  P1 inner;
  P2 outer;
  template <class V>
  auto operator()(V v, std::int64_t i) const {
    return outer(inner(v, i), i);
  }
};

// The two parallel helpers chunk a list of `n` segments holding `total`
// cells: a plan's segments, or — for a generator-less chain, which has no
// plan — the root's single cells.

/// Runs `fn(seg_lo, seg_hi)` over segments [0, n), sequentially or chunked
/// over the executor. Segment-range chunking (not axis-0 rows) is what
/// gives ragged/strided generators an even parallel grain.
template <class Fn>
void run_over_segments(std::int64_t n, std::int64_t total, const Context& ctx,
                       const Fn& fn) {
  if (n == 0) {
    return;
  }
  if (ctx.threads <= 1 || n <= 1 || total < ctx.grain) {
    fn(0, n);
    return;
  }
  const std::int64_t avg = std::max<std::int64_t>(1, total / n);
  const std::int64_t seg_grain = std::max<std::int64_t>(1, ctx.grain / avg);
  snetsac::runtime::parallel_for_chunks(sac_pool(), 0, n, seg_grain, fn,
                                        ctx.threads);
}

/// The parallel fold: `fold_range(seg_lo, seg_hi, part)` folds segments
/// [seg_lo, seg_hi) into `part`; segment i holds `cells(i)` cells.
/// Sequentially that is one call continuing \p acc; in parallel the
/// segments are cut into ranges of >= grain cells, each range folds its own
/// partial from \p neutral (at most `ctx.threads` chunks run at once), and
/// the partials are combined into \p acc in segment (= index) order.
template <class R, class Cells, class Combine, class FoldRange>
R fold_over_segments(std::int64_t n, std::int64_t total, const Cells& cells,
                     const Context& ctx, R acc, const R& neutral,
                     const Combine& combine, const FoldRange& fold_range) {
  if (ctx.threads <= 1 || n <= 1 || total < ctx.grain) {
    return fold_range(0, n, std::move(acc));
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::int64_t start = 0;
  std::int64_t in_range = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    in_range += cells(i);
    if (in_range >= ctx.grain) {
      ranges.emplace_back(start, i + 1);
      start = i + 1;
      in_range = 0;
    }
  }
  if (start < n) {
    ranges.emplace_back(start, n);
  }
  // Partials live in the storage type: std::vector<bool>'s packed bits
  // must not be written concurrently from different chunks.
  std::vector<storage_t<R>> partials(ranges.size(), static_cast<storage_t<R>>(neutral));
  snetsac::runtime::parallel_for_chunks(
      sac_pool(), 0, static_cast<std::int64_t>(ranges.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t c = lo; c < hi; ++c) {
          const auto& [rlo, rhi] = ranges[static_cast<std::size_t>(c)];
          partials[static_cast<std::size_t>(c)] =
              static_cast<storage_t<R>>(fold_range(rlo, rhi, neutral));
        }
      },
      ctx.threads);
  for (const auto& p : partials) {
    acc = combine(acc, static_cast<R>(p));
  }
  return acc;
}

/// The segment length cap for a plan over \p cells cells under \p ctx.
/// When the plan will be chunked over the executor, no segment may hold
/// more than cells / threads² cells: the segment-count chunking above then
/// cuts at least ctx.threads chunks (ceil-sized chunks of n >= threads²
/// segments always number threads), however few generator cells cover a
/// large root. A sequential plan keeps SegmentPlan::kMaxSegmentLen.
inline std::int64_t segment_cap(std::int64_t cells, const Context& ctx) {
  if (ctx.threads <= 1 || cells < ctx.grain) {
    return SegmentPlan::kMaxSegmentLen;
  }
  const auto t2 = static_cast<std::int64_t>(ctx.threads) * ctx.threads;
  return (cells + t2 - 1) / t2;
}

/// Segment cell counts of \p plan, for fold_over_segments.
inline auto plan_cells(const SegmentPlan& plan) {
  return [&plan](std::int64_t i) {
    return plan.segments()[static_cast<std::size_t>(i)].count();
  };
}

/// Cells a fold or a fused chain takes from one row-runner call: the runner
/// writes them to a stack buffer, which the consumer then walks.
inline constexpr std::int64_t kRowChunk = 64;

}  // namespace detail

template <class T, class Post = detail::IdentityStage>
class Fused;

template <class T>
class With {
 public:
  using storage = detail::storage_t<T>;

  // User-provided, not defaulted: value-initialising `With<T>()` would
  // otherwise zero the inline generator storage (over 1 KB) first.
  With() {}

  /// Generator `lb <= iv < ub` with body expression \p body, any callable
  /// `body(const Index&)` whose result converts to T.
  template <class F>
  With& gen(Index lb, Index ub, F&& body) {
    check_bounds_rank(lb, ub);
    gens_.emplace_back(std::move(lb), std::move(ub), std::forward<F>(body));
    return *this;
  }

  /// Generator `lb <= iv <= ub` (the inclusive form used by the paper's
  /// `addNumber`); normalised to an exclusive upper bound.
  template <class F>
  With& gen_incl(Index lb, Index ub, F&& body) {
    for (auto& c : ub) {
      c += 1;
    }
    return gen(std::move(lb), std::move(ub), std::forward<F>(body));
  }

  /// Constant-body generators, e.g. `([i,j,0] <= iv <= [i,j,8]) : false`.
  /// Their rows become `std::fill`/memset; no body is stored at all.
  With& gen_val(Index lb, Index ub, T value) {
    check_bounds_rank(lb, ub);
    gens_.emplace_back(std::move(lb), std::move(ub), kConst, std::move(value));
    return *this;
  }
  With& gen_incl_val(Index lb, Index ub, T value) {
    for (auto& c : ub) {
      c += 1;
    }
    return gen_val(std::move(lb), std::move(ub), std::move(value));
  }

  /// SaC striding on the most recently added generator: of every `step`
  /// consecutive indices per axis, the first `width` are members.
  With& step(Index s) {
    last().spec.step = std::move(s);
    return *this;
  }
  With& width(Index w) {
    last().spec.width = std::move(w);
    return *this;
  }

  /// genarray-with-loop: the result shape is given explicitly (it is "not
  /// the generator that defines the shape of the resulting array").
  Array<T> genarray(const Shape& result_shape, T default_value,
                    const Context& ctx = default_context()) const {
    Array<T> result(result_shape, default_value);
    apply_generators(result, ctx);
    return result;
  }

  /// modarray-with-loop: result has the shape of \p src; uncovered elements
  /// keep the corresponding value of \p src.
  Array<T> modarray(Array<T> src, const Context& ctx = default_context()) const {
    apply_generators(src, ctx);
    return src;
  }

  /// Lazy genarray: the with-loop as a fusable expression. Elementwise
  /// consumers chained onto it (map / zip_with / fold) execute inside this
  /// with-loop's segment pass — `genarray→map→fold` is one pass with zero
  /// intermediate arrays.
  Fused<T> lazy_genarray(Shape result_shape, T default_value) const;

  /// Lazy modarray: like lazy_genarray, with uncovered cells drawn from
  /// \p src (captured by value; COW keeps the source snapshot intact even
  /// if the chain's result is later assigned over the same handle).
  Fused<T> lazy_modarray(Array<T> src) const;

  /// fold-with-loop: reduces body values over every generator element.
  /// \p combine must be associative; evaluation order is unspecified
  /// except that per-chunk partial results are combined in index order.
  /// Overlapping generators each contribute all their elements (no overlap
  /// resolution — fold is a multiset reduction, not an array build).
  template <class C>
  T fold(const C& combine, T neutral, const Context& ctx = default_context()) const {
    T acc = neutral;
    for (const auto& g : gens_) {
      validate_striding(g.spec);  // before any member-count division by step
      const std::int64_t est = member_count(g.spec);
      validate_rank_only(g, est);
      if (est == 0) {
        continue;
      }
      if (ctx.threads <= 1 || est < ctx.grain) {
        // Plan-free sequential fold over the generator's rows.
        Index iv;
        walk_runs(g.spec, iv, [&](std::int64_t lo, std::int64_t hi) {
          eval_run(g, iv, lo, hi,
                   [&](std::int64_t, const T& v) { acc = combine(acc, v); });
        });
      } else {
        acc = fold_parallel(g, combine, std::move(acc), neutral, ctx, est);
      }
    }
    return acc;
  }

 private:
  template <class, class>
  friend class Fused;
  friend struct testing::ReferenceEngine;

  struct ConstTag {};
  static constexpr ConstTag kConst{};

  using Body = std::function<T(const Index&)>;

  /// A row runner: writes the body's value at every cell of the row
  /// [lo, hi) to out[0, hi - lo). \p iv holds the row's outer components;
  /// the runner sets its last one. A rank-0 iv is the single cell [0, 1).
  using RowRunner = void (*)(Body& body, Index& iv, std::int64_t lo, std::int64_t hi,
                             storage* out);

  /// The row runner of a body of type F: the loop calls F directly, so the
  /// body inlines into it. A body given as a `Body` (or an empty one) is
  /// called through the `std::function`.
  template <class F>
  static void run_row(Body& body, Index& iv, std::int64_t lo, std::int64_t hi,
                      storage* out) {
    auto& f = [&]() -> auto& {
      if constexpr (std::is_same_v<F, Body>) {
        return body;
      } else {
        return *body.template target<F>();
      }
    }();
    const Index& civ = iv;
    if (iv.empty()) {
      *out = static_cast<storage>(static_cast<T>(f(civ)));
      return;
    }
    std::int64_t& col = iv[iv.size() - 1];
    for (std::int64_t j = lo; j < hi; ++j) {
      col = j;
      *out++ = static_cast<storage>(static_cast<T>(f(civ)));
    }
  }

  /// Built in place by gen / gen_val.
  struct Generator {
    template <class F, class D = std::decay_t<F>>
    Generator(Index&& lb, Index&& ub, F&& f)
        : spec{std::move(lb), std::move(ub), {}, {}},
          body(std::forward<F>(f)),
          run(body ? &run_row<D> : &run_row<Body>) {}
    Generator(Index&& lb, Index&& ub, ConstTag, T value)
        : spec{std::move(lb), std::move(ub), {}, {}}, const_val(std::move(value)) {}

    bool is_const() const { return run == nullptr; }

    GeneratorSpec spec;
    // Mutable like std::function's target: a body is called as non-const.
    mutable Body body;       // empty for constant (gen_val) generators
    RowRunner run = nullptr;  // null for constant generators
    T const_val{};
  };

  static void check_bounds_rank(const Index& lb, const Index& ub) {
    if (lb.size() != ub.size()) {
      detail::throw_bounds_rank(lb, ub);
    }
  }

  Generator& last() {
    if (gens_.empty()) {
      throw std::logic_error("step()/width() before any generator");
    }
    return gens_.back();
  }

  /// Rank and bounds of \p g against \p target; striding must be validated
  /// first. \p est is the generator's member count, computed once by the
  /// caller (or taken from the plan) — bounds of empty generators are
  /// irrelevant.
  static void validate_against(const Generator& g, const Shape& target,
                               std::int64_t est) {
    if (static_cast<int>(g.spec.lb.size()) != target.rank()) {
      detail::throw_generator_rank(g.spec.lb.size(), target);
    }
    if (est == 0) {
      return;  // empty generators never touch memory, bounds irrelevant
    }
    for (std::size_t a = 0; a < g.spec.lb.size(); ++a) {
      if (g.spec.lb[a] < 0 || g.spec.ub[a] > target.dims()[a]) {
        detail::throw_generator_range(g.spec.lb, g.spec.ub, target);
      }
    }
  }

  /// A fold generator's lower bound; striding must be validated first.
  static void validate_rank_only(const Generator& g, std::int64_t est) {
    if (est == 0) {
      return;
    }
    for (const auto c : g.spec.lb) {
      if (c < 0) {
        detail::throw_fold_lower_bound(g.spec.lb);
      }
    }
  }

  static void validate_striding(const GeneratorSpec& g) {
    if (g.step.empty() && g.width.empty()) {
      return;
    }
    if (!g.step.empty() && g.step.size() != g.lb.size()) {
      detail::throw_shape_error("step vector rank mismatch in generator");
    }
    if (!g.width.empty() && g.width.size() != g.lb.size()) {
      detail::throw_shape_error("width vector rank mismatch in generator");
    }
    for (const auto s : g.step) {
      if (s < 1) {
        detail::throw_shape_error("generator step components must be >= 1");
      }
    }
    for (std::size_t a = 0; a < g.width.size(); ++a) {
      if (g.width[a] < 1 || (!g.step.empty() && g.width[a] > g.step[a])) {
        detail::throw_shape_error("generator width must satisfy 1 <= width <= step");
      }
    }
  }

  std::vector<GeneratorSpec> specs() const {
    std::vector<GeneratorSpec> out;
    out.reserve(gens_.size());
    for (const auto& g : gens_) {
      out.push_back(g.spec);
    }
    return out;
  }

  /// The plan over \p shape, its segments capped for \p ctx chunking the
  /// plan's \p cells cells (see detail::segment_cap).
  SegmentPlan build_plan(const Shape& shape, bool resolve_overlap, bool with_complement,
                         std::int64_t cells, const Context& ctx) const {
    return SegmentPlan(specs(), shape, resolve_overlap, with_complement,
                       detail::segment_cap(cells, ctx));
  }

  /// Rank and striding checks that must pass before a plan can even be
  /// built (decomposition divides by step and indexes by rank).
  void prevalidate(const Shape& shape) const {
    for (const auto& g : gens_) {
      if (static_cast<int>(g.spec.lb.size()) != shape.rank()) {
        detail::throw_generator_rank(g.spec.lb.size(), shape);
      }
      validate_striding(g.spec);
    }
  }

  void validate_all(const Shape& shape, const SegmentPlan& plan) const {
    for (std::size_t gi = 0; gi < gens_.size(); ++gi) {
      validate_against(gens_[gi], shape, plan.generator_elements(gi));
    }
  }

  /// Sizes \p iv to \p rank and loads a plan row's outer components \p pre.
  static void load_row(Index& iv, std::size_t rank, const std::int64_t* pre) {
    iv.resize(rank);
    if (rank > 1) {
      std::copy(pre, pre + (rank - 1), iv.begin());
    }
  }

  /// The generator evaluator, visit form: hands `visit(t, value)` the value
  /// of every cell of \p g's last-axis run [lo, hi), t = j - lo, where \p iv
  /// holds the run's outer components. A body generator costs one
  /// row-runner call per detail::kRowChunk cells.
  template <class Visit>
  static void eval_run(const Generator& g, Index& iv, std::int64_t lo, std::int64_t hi,
                       const Visit& visit) {
    if (g.is_const()) {
      for (std::int64_t t = 0; t < hi - lo; ++t) {
        visit(t, g.const_val);
      }
      return;
    }
    storage buf[detail::kRowChunk];
    for (std::int64_t c = lo; c < hi; c += detail::kRowChunk) {
      const std::int64_t e = std::min(hi, c + detail::kRowChunk);
      g.run(g.body, iv, c, e, buf);
      for (std::int64_t t = 0; t < e - c; ++t) {
        visit(c - lo + t, static_cast<T>(buf[t]));
      }
    }
  }

  /// The generator evaluator, store form: writes the run's cells to
  /// `out[0, hi - lo)` — `std::fill` for constant generators, one
  /// row-runner call otherwise.
  static void store_run(const Generator& g, Index& iv, std::int64_t lo, std::int64_t hi,
                        storage* out) {
    if (g.is_const()) {
      std::fill(out, out + (hi - lo), static_cast<storage>(g.const_val));
      return;
    }
    g.run(g.body, iv, lo, hi, out);
  }

  /// Dense (unstrided) constant generator, written as nested strided
  /// stores over a *compacted* axis list: extent-1 axes are dropped (they
  /// only shift the base — addNumber's row/column/box generators each pin
  /// two of three axes) and adjacent axes that are contiguous in memory are
  /// merged into one longer run. Without this the generic run walk pays a
  /// memset call (or odometer dispatch) per single-cell row, which costs
  /// more than the whole generator's worth of stores.
  static void fill_dense(const GeneratorSpec& g, storage* out, const Index& strides,
                         storage v) {
    const std::size_t rank = g.lb.size();
    std::int64_t base = 0;
    Index ext;
    Index str;
    for (std::size_t a = 0; a < rank; ++a) {
      base += g.lb[a] * strides[a];
      const std::int64_t e = g.ub[a] - g.lb[a];
      if (e > 1) {
        ext.push_back(e);
        str.push_back(strides[a]);
      }
    }
    // Merge inward-contiguous neighbours: axis i spans exactly ext[i]
    // repetitions of the [i+1..] block when str[i] == ext[i+1]*str[i+1].
    std::size_t m = ext.size();
    while (m >= 2 && str[m - 2] == ext[m - 1] * str[m - 1]) {
      ext[m - 2] *= ext[m - 1];
      str[m - 2] = str[m - 1];
      --m;
    }
    if (m == 0) {
      out[base] = v;
      return;
    }
    const std::int64_t len = ext[m - 1];
    const std::int64_t lstr = str[m - 1];
    const auto run = [&](std::int64_t b) {
      if (lstr == 1 && len >= 16) {
        std::fill(out + b, out + b + len, v);
      } else {
        storage* p = out + b;
        for (std::int64_t t = 0; t < len; ++t, p += lstr) {
          *p = v;
        }
      }
    };
    if (m == 1) {
      run(base);
      return;
    }
    if (m == 2) {
      for (std::int64_t r = 0; r < ext[0]; ++r, base += str[0]) {
        run(base);
      }
      return;
    }
    // m >= 3: odometer over the axes outside the innermost run.
    const std::size_t outer = m - 1;
    Index ip(outer, 0);
    while (true) {
      run(base);
      std::size_t a = outer;
      while (true) {
        if (a == 0) {
          return;
        }
        --a;
        ++ip[a];
        base += str[a];
        if (ip[a] < ext[a]) {
          break;
        }
        base -= ip[a] * str[a];
        ip[a] = 0;
      }
    }
  }

  /// Sequential execution without a SegmentPlan: generators run in order
  /// (later overwrites earlier — the overlap rule needs no setup-time
  /// resolution when execution is ordered), each over its rows. This keeps
  /// tiny with-loops — sudoku's addNumber touches ~3N cells per call — free
  /// of plan-building cost, and allocation-free.
  void apply_seq(Array<T>& result, const Shape& shp, const Index& ests) const {
    storage* out = nullptr;  // detach lazily: empty loops must not COW
    const Index strides = shp.strides();
    const std::size_t outer = strides.empty() ? 0 : strides.size() - 1;
    Index iv;
    for (std::size_t gi = 0; gi < gens_.size(); ++gi) {
      if (ests[gi] == 0) {
        continue;
      }
      const Generator& g = gens_[gi];
      if (out == nullptr) {
        out = result.mutable_data().data();
      }
      if (g.is_const() && g.spec.step.empty()) {
        fill_dense(g.spec, out, strides, static_cast<storage>(g.const_val));
        continue;
      }
      walk_runs(g.spec, iv, [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t base = lo;
        for (std::size_t a = 0; a < outer; ++a) {
          base += iv[a] * strides[a];
        }
        store_run(g, iv, lo, hi, out + base);
      });
    }
  }

  void apply_generators(Array<T>& result, const Context& ctx) const {
    const Shape& shp = result.shape();
    // One member count per generator per apply; doubles as the size
    // trigger for the plan-free sequential path. Inline up to four
    // generators, like gens_ — this runs on every with-loop call.
    Index ests(gens_.size(), 0);
    std::int64_t total = 0;
    for (std::size_t gi = 0; gi < gens_.size(); ++gi) {
      validate_striding(gens_[gi].spec);  // before any member-count division by step
      ests[gi] = member_count(gens_[gi].spec);
      validate_against(gens_[gi], shp, ests[gi]);
      total += ests[gi];
    }
    if (total == 0) {
      return;
    }
    if (ctx.threads <= 1 || total < ctx.grain) {
      apply_seq(result, shp, ests);
    } else {
      apply_parallel(result, ctx, total);
    }
  }

  /// The chunked apply of a with-loop of at least ctx.grain cells.
  [[gnu::noinline]] void apply_parallel(Array<T>& result, const Context& ctx,
                                        std::int64_t total) const {
    const Shape& shp = result.shape();
    const SegmentPlan plan = build_plan(shp, /*resolve_overlap=*/true,
                                        /*with_complement=*/false, total, ctx);
    if (plan.segments().empty()) {
      return;
    }
    // Detach once, before chunking; every chunk writes disjoint cells.
    storage* out = result.mutable_data().data();
    const auto n = static_cast<std::int64_t>(plan.segments().size());
    const auto rank = static_cast<std::size_t>(shp.rank());
    detail::run_over_segments(n, plan.total_elements(), ctx,
                              [&](std::int64_t lo, std::int64_t hi) {
      Index iv;
      for (std::int64_t si = lo; si < hi; ++si) {
        const Segment& s = plan.segments()[static_cast<std::size_t>(si)];
        load_row(iv, rank, plan.prefix_at(s.prefix));
        store_run(gens_[static_cast<std::size_t>(s.gen)], iv, s.col_lo, s.col_hi,
                  out + s.base);
      }
    });
  }

  /// The chunked fold of one generator of at least ctx.grain cells. Out
  /// of line, like apply_parallel: inlined, the plan and executor code
  /// would crowd the small sequential path out of its caller's inlining.
  template <class C>
  [[gnu::noinline]] T fold_parallel(const Generator& g, const C& combine, T acc,
                                    const T& neutral, const Context& ctx,
                                    std::int64_t est) const {
    // Fold has no result array: decompose against the generator's own
    // bounding shape (lb >= 0 was validated; linear bases are unused).
    const Shape bounding(g.spec.ub);
    const SegmentPlan plan({g.spec}, bounding, /*resolve_overlap=*/false,
                           /*with_complement=*/false, detail::segment_cap(est, ctx));
    const std::size_t rank = g.spec.lb.size();
    return detail::fold_over_segments(
        static_cast<std::int64_t>(plan.segments().size()), plan.total_elements(),
        detail::plan_cells(plan), ctx, std::move(acc), neutral, combine,
        [&](std::int64_t lo, std::int64_t hi, T part) {
          Index iv;
          for (std::int64_t si = lo; si < hi; ++si) {
            const Segment& s = plan.segments()[static_cast<std::size_t>(si)];
            load_row(iv, rank, plan.prefix_at(s.prefix));
            eval_run(g, iv, s.col_lo, s.col_hi,
                     [&](std::int64_t, const T& v) { part = combine(part, v); });
          }
          return part;
        });
  }

  /// Inline up to addNumber's four generators; more spill to the heap.
  SmallVector<Generator, 4> gens_;
};

/// Fused with-loop chain: a lazy with-loop (or plain array) with a stack of
/// elementwise post-stages. Terminals (`to_array`, `fold`) execute the whole
/// chain in one segment pass of the root — chained producers never
/// materialise. The interpreted test oracle (tests/with_loop_reference.hpp)
/// instead materialises the root and applies the stages elementwise, so
/// the engine equivalence tests cover fusion too.
template <class T, class Post>
class Fused {
 public:
  using value_type =
      std::decay_t<std::invoke_result_t<const Post&, T, std::int64_t>>;

  const Shape& shape() const { return shape_; }

  /// Chains an elementwise function: value' = f(value).
  template <class F>
  auto map(F f) const {
    using NewPost = detail::ComposedStage<Post, detail::MapStage<F>>;
    return Fused<T, NewPost>(with_, shape_, src_, def_, has_src_,
                             NewPost{post_, detail::MapStage<F>{std::move(f)}});
  }

  /// Chains a binary elementwise function against a second array of the
  /// same shape: value' = f(value, other[iv]).
  template <class U, class F>
  auto zip_with(const Array<U>& other, F f) const {
    if (other.shape() != shape_) {
      throw ShapeError("zip_with on shapes " + shape_.to_string() + " and " +
                       other.shape().to_string());
    }
    using NewPost =
        detail::ComposedStage<Post, detail::ZipStage<U, F>>;
    detail::ZipStage<U, F> stage{other, other.data().data(), std::move(f)};
    return Fused<T, NewPost>(with_, shape_, src_, def_, has_src_,
                             NewPost{post_, std::move(stage)});
  }

  /// Materialises the chain: one pass, no intermediate arrays.
  Array<value_type> to_array(const Context& ctx = default_context()) const {
    using R = value_type;
    using RS = detail::storage_t<R>;
    Array<R> out(shape_, R{});
    const std::int64_t n = shape_.element_count();
    if (n == 0) {
      return out;
    }
    RS* op = out.mutable_data().data();
    const detail::storage_t<T>* sp = has_src_ ? src_.data().data() : nullptr;
    const auto store = [&](std::int64_t linear, T v) {
      op[linear] = static_cast<RS>(post_(v, linear));
    };
    if (with_.gens_.empty()) {
      // Generator-less chain (lazy(a).map(...) and friends): no plan; the
      // root's cells are the segments.
      detail::run_over_segments(n, n, ctx, [&](std::int64_t lo, std::int64_t hi) {
        run_cells(lo, hi, sp, store);
      });
      return out;
    }
    with_.prevalidate(shape_);
    const SegmentPlan plan =
        with_.build_plan(shape_, /*resolve_overlap=*/true, /*with_complement=*/true, n, ctx);
    with_.validate_all(shape_, plan);
    detail::run_over_segments(
        static_cast<std::int64_t>(plan.segments().size()), plan.total_elements(), ctx,
        [&](std::int64_t lo, std::int64_t hi) { run_segments(plan, lo, hi, sp, store); });
    return out;
  }

  /// Folds the chain's cells (each exactly once — overlap resolved, default
  /// and source cells included) with \p combine. One pass, no arrays.
  template <class C>
  value_type fold(C combine, value_type neutral,
                  const Context& ctx = default_context()) const {
    using R = value_type;
    const std::int64_t n = shape_.element_count();
    if (n == 0) {
      return neutral;
    }
    const detail::storage_t<T>* sp = has_src_ ? src_.data().data() : nullptr;
    if (with_.gens_.empty()) {
      return detail::fold_over_segments(
          n, n, [](std::int64_t) { return std::int64_t{1}; }, ctx, neutral, neutral,
          combine, [&](std::int64_t lo, std::int64_t hi, R part) {
            run_cells(lo, hi, sp,
                      [&](std::int64_t i, T v) { part = combine(part, post_(v, i)); });
            return part;
          });
    }
    with_.prevalidate(shape_);
    const SegmentPlan plan =
        with_.build_plan(shape_, /*resolve_overlap=*/true, /*with_complement=*/true, n, ctx);
    with_.validate_all(shape_, plan);
    return detail::fold_over_segments(
        static_cast<std::int64_t>(plan.segments().size()), plan.total_elements(),
        detail::plan_cells(plan), ctx, neutral, neutral, combine,
        [&](std::int64_t lo, std::int64_t hi, R part) {
          run_segments(plan, lo, hi, sp, [&](std::int64_t linear, T v) {
            part = combine(part, post_(v, linear));
          });
          return part;
        });
  }

 private:
  friend class With<T>;
  template <class, class>
  friend class Fused;
  template <class X>
  friend Fused<X> lazy(const Array<X>& a);
  friend struct testing::ReferenceEngine;

  Fused(With<T> w, Shape shp, Array<T> src, T def, bool has_src, Post post)
      : with_(std::move(w)),
        shape_(std::move(shp)),
        src_(std::move(src)),
        def_(std::move(def)),
        has_src_(has_src),
        post_(std::move(post)) {}

  /// Drives segments [lo, hi), producing each cell's root value and linear
  /// offset through \p emit (a template parameter, so the post chain and
  /// the consumer inline into the loop).
  template <class Emit>
  void run_segments(const SegmentPlan& plan, std::int64_t lo, std::int64_t hi,
                    const detail::storage_t<T>* sp, const Emit& emit) const {
    const auto rank = static_cast<std::size_t>(shape_.rank());
    Index iv;
    for (std::int64_t si = lo; si < hi; ++si) {
      const Segment& s = plan.segments()[static_cast<std::size_t>(si)];
      if (s.gen == SegmentPlan::kComplement) {
        run_cells(s.base, s.base + s.count(), sp, emit);
        continue;
      }
      With<T>::load_row(iv, rank, plan.prefix_at(s.prefix));
      const auto& g = with_.gens_[static_cast<std::size_t>(s.gen)];
      With<T>::eval_run(g, iv, s.col_lo, s.col_hi,
                        [&](std::int64_t t, const T& v) { emit(s.base + t, v); });
    }
  }

  /// Emits the root value of cells [lo, hi) covered by no generator: the
  /// source's cell when \p sp is set, else the default.
  template <class Emit>
  void run_cells(std::int64_t lo, std::int64_t hi, const detail::storage_t<T>* sp,
                 const Emit& emit) const {
    if (sp != nullptr) {
      for (std::int64_t i = lo; i < hi; ++i) {
        emit(i, static_cast<T>(sp[i]));
      }
    } else {
      for (std::int64_t i = lo; i < hi; ++i) {
        emit(i, def_);
      }
    }
  }

  With<T> with_;
  Shape shape_;
  Array<T> src_;  // engaged iff has_src_
  T def_{};
  bool has_src_ = false;
  Post post_;
};

template <class T>
inline Fused<T> With<T>::lazy_genarray(Shape result_shape, T default_value) const {
  return Fused<T>(*this, std::move(result_shape), Array<T>(), std::move(default_value),
                  /*has_src=*/false, detail::IdentityStage{});
}

template <class T>
inline Fused<T> With<T>::lazy_modarray(Array<T> src) const {
  Shape shp = src.shape();
  return Fused<T>(*this, std::move(shp), std::move(src), T{},
                  /*has_src=*/true, detail::IdentityStage{});
}

/// Lifts a plain array into a fusable chain (a generator-less lazy
/// modarray): `lazy(a).map(f).zip_with(b, g).fold(...)` is one pass over
/// `a`'s storage with everything inlined.
template <class T>
Fused<T> lazy(const Array<T>& a) {
  return With<T>().lazy_modarray(a);
}

}  // namespace sac

#endif
