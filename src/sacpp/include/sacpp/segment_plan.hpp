#ifndef SNETSAC_SACPP_SEGMENT_PLAN_HPP
#define SNETSAC_SACPP_SEGMENT_PLAN_HPP

/// \file segment_plan.hpp
/// Dense row-segment decomposition of with-loop generators.
///
/// The compiled with-loop engine makes the contiguous row segment — not the
/// element — the unit of execution. At genarray/modarray/fold entry, every
/// generator `lb <= iv < ub` (with optional SaC step/width striding) is
/// decomposed against the result shape into a flat plan of segments
/// `[linear_base, linear_base + count)`: maximal runs along the last axis
/// that share one row prefix. Inner loops over a segment are plain countable
/// loops over raw storage (auto-vectorisable, `std::fill`-able); executor
/// chunking distributes *segment ranges*, which fixes parallel grain for
/// ragged and strided generators that an axis-0 row split handles badly.
///
/// Generator overlap ("a later generator overwrites an earlier one") is
/// resolved here, at setup: a segment of generator g is trimmed by the
/// linear coverage of all generators after g, so no cell is written twice
/// and segments can execute in any order — the property that licenses
/// data-parallel execution without per-cell ordering.
///
/// The plan can additionally carry the *complement*: segments covering the
/// cells no generator touches (tagged `kComplement`). Fused with-loop chains
/// use these to apply a post-transform to default/source cells in the same
/// single pass.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sacpp/shape.hpp"

namespace sac {

/// Body-less view of one with-loop generator (bounds + striding only); the
/// typed layer keeps bodies parallel to this by ordinal.
struct GeneratorSpec {
  Index lb;
  Index ub;     // exclusive
  Index step;   // empty = dense
  Index width;  // empty = 1
};

/// Exact member-cell count of \p g: per axis, the positions in [lb, ub)
/// whose offset from lb falls in the first `width` of every `step`.
/// Striding must be validated first (the count divides by step).
inline std::int64_t member_count(const GeneratorSpec& g) {
  std::int64_t n = 1;
  for (std::size_t a = 0; a < g.lb.size(); ++a) {
    const std::int64_t extent = g.ub[a] - g.lb[a];
    if (extent <= 0) {
      return 0;
    }
    if (!g.step.empty()) {
      const std::int64_t st = g.step[a];
      const std::int64_t wd = g.width.empty() ? 1 : g.width[a];
      n *= extent / st * wd + std::min(extent % st, wd);
    } else {
      n *= extent;
    }
  }
  return n;
}

/// The generator odometer: calls `run(lo, hi)` for every contiguous
/// last-axis run [lo, hi) of generator \p g, in row-major order. It steps
/// \p iv in place, sized to the generator's rank: during each call
/// iv[0, rank-1) holds the run's outer components, and the last component
/// is the caller's to set. A rank-0 generator is the single run [0, 1)
/// with an empty \p iv. Striding must be validated first.
template <class RunFn>
void walk_runs(const GeneratorSpec& g, Index& iv, const RunFn& run) {
  iv = g.lb;
  const std::size_t rank = g.lb.size();
  if (rank == 0) {
    run(std::int64_t{0}, std::int64_t{1});
    return;
  }
  const std::size_t last = rank - 1;
  const bool dense = g.step.empty();
  const std::int64_t lb_l = g.lb[last];
  const std::int64_t ub_l = g.ub[last];
  while (true) {
    if (dense) {
      run(lb_l, ub_l);
    } else {
      const std::int64_t st_l = g.step[last];
      const std::int64_t wd_l = g.width.empty() ? 1 : g.width[last];
      for (std::int64_t s = lb_l; s < ub_l; s += st_l) {
        run(s, std::min(s + wd_l, ub_l));
      }
    }
    // Advance the outer-axis odometer (axis last-1 fastest), honouring
    // striding by jumping past non-member positions.
    std::size_t a = last;
    while (true) {
      if (a == 0) {
        return;
      }
      --a;
      std::int64_t& p = iv[a];
      ++p;
      if (!dense) {
        const std::int64_t st = g.step[a];
        const std::int64_t wd = g.width.empty() ? 1 : g.width[a];
        if ((p - g.lb[a]) % st >= wd) {
          p = g.lb[a] + ((p - g.lb[a]) / st + 1) * st;
        }
      }
      if (p < g.ub[a]) {
        break;
      }
      p = g.lb[a];
    }
  }
}

/// One contiguous run of result cells, all sharing a row prefix.
struct Segment {
  /// Ordinal of the producing generator, or kComplement for cells covered
  /// by no generator (genarray default / modarray source).
  std::int32_t gen = 0;
  /// Linear offset of the first cell in the row-major result buffer.
  std::int64_t base = 0;
  /// Last-axis index range [col_lo, col_hi) of the run. For complement
  /// segments (which may span rows and never need index vectors) this is
  /// simply [0, count).
  std::int64_t col_lo = 0;
  std::int64_t col_hi = 0;
  /// Offset of this segment's rank-1 row prefix in the plan's prefix pool,
  /// or -1 for complement segments.
  std::int64_t prefix = -1;

  std::int64_t count() const { return col_hi - col_lo; }
};

class SegmentPlan {
 public:
  static constexpr std::int32_t kComplement = -1;

  /// Upper bound on segment length: longer runs are split so the executor
  /// can distribute them (one 1M-cell rank-1 generator must not serialise).
  static constexpr std::int64_t kMaxSegmentLen = 1 << 14;

  /// Decomposes \p gens against \p shape.
  ///  * resolve_overlap: trim earlier generators by later coverage
  ///    (genarray/modarray). Off for fold, where every generator element
  ///    contributes even when generators overlap.
  ///  * with_complement: append kComplement segments covering the cells no
  ///    generator touches.
  /// Generators are assumed already validated against \p shape; empty
  /// generators contribute nothing (and their bounds are never linearised).
  /// No segment holds more than \p max_len cells (at most kMaxSegmentLen):
  /// a caller that will chunk the plan over the executor passes a length
  /// that leaves enough segments to cut into its chunks.
  SegmentPlan(const std::vector<GeneratorSpec>& gens, const Shape& shape,
              bool resolve_overlap, bool with_complement,
              std::int64_t max_len = kMaxSegmentLen);

  const std::vector<Segment>& segments() const { return segments_; }

  /// Rank-1 row-prefix components of a generator segment (outer-axis index
  /// values; the last axis varies over [col_lo, col_hi)).
  const std::int64_t* prefix_at(std::int64_t offset) const {
    return prefix_pool_.empty() ? nullptr : prefix_pool_.data() + offset;
  }

  /// Exact member-cell count of generator \p g (pre-trim), computed once at
  /// decomposition.
  std::int64_t generator_elements(std::size_t g) const { return gen_elements_[g]; }

  /// Total cells the plan writes (post-trim, including complement if built).
  std::int64_t total_elements() const { return total_elements_; }

 private:
  void decompose_generator(std::int32_t ordinal, const GeneratorSpec& g,
                           const Index& strides,
                           std::vector<Segment>& out);

  std::int64_t max_len_;

  std::vector<Segment> segments_;
  std::vector<std::int64_t> prefix_pool_;
  std::vector<std::int64_t> gen_elements_;
  std::int64_t total_elements_ = 0;
};

}  // namespace sac

#endif
