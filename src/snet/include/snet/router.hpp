#ifndef SNETSAC_SNET_ROUTER_HPP
#define SNETSAC_SNET_ROUTER_HPP

/// \file router.hpp (internal)
/// Shape-memoized branch selection for parallel combinators. The branch
/// input types are fixed at instantiation and a record's match outcome
/// depends only on its label set, so the full best-match decision — the
/// winning score and the set of equally-scored branches — is computed once
/// per distinct `ShapeId` and replayed as a single hash lookup thereafter.
/// Ties still rotate per record ("one is selected non-deterministically");
/// only the tied *set* is memoized, not the pick.
///
/// Route tables are *bounded*: steady-state streams carry a handful of
/// shapes, but an adversarial workload can mint unbounded distinct label
/// sets (the ROADMAP follow-up from PR 2). At `max_entries` the table is
/// evicted wholesale (epoch reset — O(1) amortised for workloads that
/// merely drift); a workload that keeps blowing through the cap
/// (`kMaxResets` evictions) is genuinely churn-heavy, so caching turns
/// itself off and every decision falls back to uncached matching — always
/// correct, never unbounded memory.
///
/// Not thread-safe: a router belongs to one entity, and entities are run
/// by at most one worker at a time.

#include <cstdint>
#include <utility>
#include <vector>

#include "snet/rtypes.hpp"
#include "snet/shapes.hpp"

namespace snet::detail {

/// Cap policy shared by every per-entity route table.
struct RouteTableBounds {
  static constexpr std::size_t kDefaultMaxEntries = 1024;
  static constexpr unsigned kMaxResets = 8;
};

/// Open-addressed ShapeId → Value table behind every route memo. ShapeIds
/// are small dense integers and route tables sit on the per-record hot
/// path, so a linear-probe array (Fibonacci-mixed, load ≤ 1/2) replaces
/// the previous `unordered_map`: a lookup is one multiply plus a couple of
/// contiguous probes, no allocation. Values are stored in place; pointers
/// to them stay valid until the next `insert` (which may rehash) or
/// `clear`, which is exactly the lifetime the run caches above it need.
template <class Value>
class FlatShapeTable {
 public:
  Value* find(ShapeId shape) {
    if (count_ == 0) {
      return nullptr;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(shape) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == shape + 1) {
        return &s.value;
      }
      if (s.key == 0) {
        return nullptr;
      }
    }
  }

  /// Inserts \p value under \p shape (precondition: absent). May rehash;
  /// returns the stored value's address.
  Value* insert(ShapeId shape, Value value) {
    if ((count_ + 1) * 2 > slots_.size()) {
      grow();
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(shape) & mask;
    while (slots_[i].key != 0) {
      i = (i + 1) & mask;
    }
    slots_[i].key = shape + 1;
    slots_[i].value = std::move(value);
    ++count_;
    return &slots_[i].value;
  }

  void clear() {
    slots_.clear();
    count_ = 0;
  }

  std::size_t size() const { return count_; }

 private:
  struct Slot {
    ShapeId key = 0;  // shape + 1; 0 marks an empty slot
    Value value{};
  };

  static std::size_t mix(ShapeId shape) {
    return static_cast<std::size_t>((shape + 1) * 2654435761U);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.key == 0) {
        continue;
      }
      std::size_t i = mix(s.key - 1) & mask;
      while (slots_[i].key != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

/// Per-shape memo table: one immutable value per record shape, computed
/// on first sight. The idiom behind every entity route table — filters
/// and star exits memoize a bool (pattern type match), synchrocells a
/// slot bitset, parallels the tied branch set. Unsynchronised by design: a
/// memo belongs to one entity, and entities are run by at most one worker
/// at a time.
template <class Value>
class ShapeMemo {
 public:
  explicit ShapeMemo(std::size_t max_entries = RouteTableBounds::kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// The memoized value for \p shape, computing it via \p fill on a miss.
  /// The reference stays valid until the next get_or; once caching is
  /// disabled (sustained shape churn) it refers to a scratch copy of the
  /// freshly filled value.
  ///
  /// Same-shape *runs* — the common case once quanta drain record batches,
  /// where consecutive records of a batch carry the same ShapeId — hit the
  /// inline last-decision cache and skip even the hash lookup: the
  /// decision is taken once per run, not once per record.
  template <class Fill>
  const Value& get_or(ShapeId shape, Fill&& fill) {
    if (last_ != nullptr && shape == last_shape_) {
      return *last_;
    }
    if (!disabled_) {
      if (const Value* found = table_.find(shape)) {
        last_shape_ = shape;
        last_ = found;
        return *found;
      }
    }
    Value v = fill();
    if (!disabled_ && table_.size() >= max_entries_) {
      // Bounded table (see file comment): evict wholesale, and give up on
      // caching entirely under sustained churn.
      table_.clear();
      last_ = nullptr;
      disabled_ = ++resets_ > RouteTableBounds::kMaxResets;
    }
    if (disabled_) {
      scratch_ = std::move(v);
      return scratch_;
    }
    last_shape_ = shape;
    last_ = table_.insert(shape, std::move(v));
    return *last_;
  }

  std::size_t size() const { return table_.size(); }
  unsigned resets() const { return resets_; }
  bool caching_disabled() const { return disabled_; }

 private:
  FlatShapeTable<Value> table_;
  std::size_t max_entries_;
  unsigned resets_ = 0;
  bool disabled_ = false;
  Value scratch_{};  // the returned value while caching is disabled
  /// Inline run cache: the last shape seen and its table entry. Entries
  /// stay put until the next insert (possible rehash) or eviction, and the
  /// cache is refreshed or cleared on both — so the pointer is always into
  /// live storage.
  ShapeId last_shape_ = 0;
  const Value* last_ = nullptr;
};

class ParallelRouter {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit ParallelRouter(std::vector<MultiType> inputs,
                          std::size_t max_entries = RouteTableBounds::kDefaultMaxEntries)
      : inputs_(std::move(inputs)), memo_(max_entries) {}

  std::size_t branch_count() const { return inputs_.size(); }

  /// The branch index \p r routes to, or npos when no branch matches.
  std::size_t route(const Record& r) {
    // A fresh shape scores every branch once into the scratch vector, then
    // collects the argmax set (the same collection tied_for runs on types).
    const std::vector<std::uint32_t>& tied = memo_.get_or(r.shape(), [&] {
      scores_.clear();
      for (const MultiType& input : inputs_) {
        scores_.push_back(input.match_score(r));
      }
      std::vector<std::uint32_t> set;
      collect_argmax(scores_, set);
      return set;
    });
    if (tied.empty()) {
      return npos;
    }
    if (tied.size() == 1) {
      return tied.front();
    }
    return tied[tie_break_++ % tied.size()];
  }

  std::size_t table_size() const { return memo_.size(); }
  unsigned resets() const { return memo_.resets(); }
  bool caching_disabled() const { return memo_.caching_disabled(); }

  /// The argmax set — every branch sharing the best match score — for a
  /// *lower-bound record type* instead of a concrete record. This is the
  /// decision the topology verifier (verify.hpp) replays statically: it
  /// runs the same argmax collection as `route`, scoring with the
  /// type-level `MultiType::match_score` overload, so the static tied set
  /// equals the runtime tied set for any record of exactly that type by
  /// construction. Empty result = unroutable (the runtime's npos).
  /// Uncached — this runs at verify time, not on the record hot path.
  static std::vector<std::uint32_t> tied_for(const std::vector<MultiType>& inputs,
                                             const RecordType& v) {
    std::vector<int> scores;
    scores.reserve(inputs.size());
    for (const MultiType& input : inputs) {
      scores.push_back(input.match_score(v));
    }
    std::vector<std::uint32_t> tied;
    collect_argmax(scores, tied);
    return tied;
  }

 private:
  /// The one argmax-set collection both the runtime decision and the
  /// static `tied_for` run: keep the branches sharing the best
  /// non-negative score (empty when nothing matches).
  static void collect_argmax(const std::vector<int>& scores,
                             std::vector<std::uint32_t>& tied) {
    int best = -1;
    for (const int s : scores) {
      best = s > best ? s : best;
    }
    tied.clear();
    if (best >= 0) {
      for (std::uint32_t i = 0; i < scores.size(); ++i) {
        if (scores[i] == best) {
          tied.push_back(i);
        }
      }
    }
  }

  std::vector<MultiType> inputs_;
  /// Tied branch set per shape; ties still rotate per record in route().
  ShapeMemo<std::vector<std::uint32_t>> memo_;
  std::vector<int> scores_;  // scratch, reused across misses
  std::uint64_t tie_break_ = 0;
};

}  // namespace snet::detail

#endif
