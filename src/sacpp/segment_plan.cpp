#include "sacpp/segment_plan.hpp"

#include <algorithm>
#include <utility>

namespace sac {

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;  // [lo, hi)

/// Sorts and merges touching/overlapping intervals in place.
void normalise(std::vector<Interval>& ivs) {
  if (ivs.empty()) {
    return;
  }
  std::sort(ivs.begin(), ivs.end());
  std::size_t w = 0;
  for (std::size_t r = 1; r < ivs.size(); ++r) {
    if (ivs[r].first <= ivs[w].second) {
      ivs[w].second = std::max(ivs[w].second, ivs[r].second);
    } else {
      ivs[++w] = ivs[r];
    }
  }
  ivs.resize(w + 1);
}

/// Appends the pieces of [lo, hi) not covered by the normalised \p claimed
/// set to \p out as (lo, hi) pairs.
void subtract_into(std::int64_t lo, std::int64_t hi,
                   const std::vector<Interval>& claimed,
                   std::vector<Interval>& out) {
  // First claimed interval whose end is past lo.
  auto it = std::lower_bound(
      claimed.begin(), claimed.end(), lo,
      [](const Interval& iv, std::int64_t v) { return iv.second <= v; });
  std::int64_t cur = lo;
  for (; it != claimed.end() && it->first < hi; ++it) {
    if (it->first > cur) {
      out.emplace_back(cur, it->first);
    }
    cur = std::max(cur, it->second);
    if (cur >= hi) {
      break;
    }
  }
  if (cur < hi) {
    out.emplace_back(cur, hi);
  }
}

}  // namespace

void SegmentPlan::decompose_generator(std::int32_t ordinal, const GeneratorSpec& g,
                                      const Index& strides,
                                      std::vector<Segment>& out) {
  // The walker yields the runs; the plan pools each outer-axis prefix once
  // (consecutive runs of a strided last axis share it) and splits long
  // runs so executor chunking has grains to distribute.
  const std::size_t outer = g.lb.empty() ? 0 : g.lb.size() - 1;
  std::int64_t prefix_off = -1;
  Index iv;
  walk_runs(g, iv, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t* pre = iv.data();
    if (prefix_off < 0 ||
        !std::equal(pre, pre + outer, prefix_pool_.begin() + prefix_off)) {
      prefix_off = static_cast<std::int64_t>(prefix_pool_.size());
      prefix_pool_.insert(prefix_pool_.end(), pre, pre + outer);
    }
    std::int64_t row_base = 0;
    for (std::size_t a = 0; a < outer; ++a) {
      row_base += pre[a] * strides[a];
    }
    for (std::int64_t s = lo; s < hi; s += max_len_) {
      const std::int64_t e = std::min(hi, s + max_len_);
      out.push_back(Segment{ordinal, row_base + s, s, e, prefix_off});
    }
  });
}

SegmentPlan::SegmentPlan(const std::vector<GeneratorSpec>& gens, const Shape& shape,
                         bool resolve_overlap, bool with_complement,
                         std::int64_t max_len)
    : max_len_(std::clamp<std::int64_t>(max_len, 1, kMaxSegmentLen)) {
  gen_elements_.assign(gens.size(), 0);
  const Index strides = shape.strides();

  // Per-generator decomposition (skipping empty generators entirely, so
  // out-of-range bounds of empty generators are never linearised).
  std::vector<std::vector<Segment>> per_gen(gens.size());
  for (std::size_t gi = 0; gi < gens.size(); ++gi) {
    gen_elements_[gi] = member_count(gens[gi]);
    if (gen_elements_[gi] == 0) {
      continue;
    }
    decompose_generator(static_cast<std::int32_t>(gi), gens[gi], strides,
                        per_gen[gi]);
  }

  // Overlap resolution, back to front: `claimed` holds the merged linear
  // coverage of all later generators; earlier segments are trimmed against
  // it so every cell is written by exactly one (the latest) generator.
  std::vector<Interval> claimed;
  if (resolve_overlap || with_complement) {
    std::vector<Interval> pieces;
    for (std::size_t gi = per_gen.size(); gi-- > 0;) {
      std::vector<Segment>& segs = per_gen[gi];
      if (segs.empty()) {
        continue;
      }
      if (resolve_overlap && !claimed.empty()) {
        std::vector<Segment> trimmed;
        trimmed.reserve(segs.size());
        for (const Segment& s : segs) {
          pieces.clear();
          subtract_into(s.base, s.base + s.count(), claimed, pieces);
          for (const auto& [lo, hi] : pieces) {
            const std::int64_t shiftv = lo - s.base;
            trimmed.push_back(Segment{s.gen, lo, s.col_lo + shiftv,
                                      s.col_lo + shiftv + (hi - lo), s.prefix});
          }
        }
        segs = std::move(trimmed);
      }
      // Original (untrimmed) coverage joins the claimed set. Recomputing it
      // from the trimmed segments would be wrong only in the no-resolve
      // case; here trimmed ∪ claimed == original ∪ claimed either way, but
      // we add post-trim segments plus what is already claimed — identical.
      for (const Segment& s : segs) {
        claimed.emplace_back(s.base, s.base + s.count());
      }
      normalise(claimed);
    }
  }

  for (auto& segs : per_gen) {
    segments_.insert(segments_.end(), segs.begin(), segs.end());
  }
  // Deterministic generator-major, index-minor order (folds combine
  // per-chunk partials in this order).
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.gen != b.gen ? a.gen < b.gen : a.base < b.base;
            });

  if (with_complement) {
    std::vector<Interval> holes;
    subtract_into(0, shape.element_count(), claimed, holes);
    for (const auto& [lo, hi] : holes) {
      for (std::int64_t s = lo; s < hi; s += max_len_) {
        const std::int64_t e = std::min(hi, s + max_len_);
        segments_.push_back(Segment{kComplement, s, 0, e - s, -1});
      }
    }
  }

  for (const Segment& s : segments_) {
    total_elements_ += s.count();
  }
}

}  // namespace sac
