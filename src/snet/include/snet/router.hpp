#ifndef SNETSAC_SNET_ROUTER_HPP
#define SNETSAC_SNET_ROUTER_HPP

/// \file router.hpp (internal)
/// Shape-memoized routing decisions. A record's match outcome depends only
/// on its label set, so a decision — a parallel's winning branch set, a
/// star's exit-pattern type match, a filter's compiled plans — is
/// computed once per distinct `ShapeId` and replayed as one lookup
/// thereafter. Ties still rotate per record ("one is selected
/// non-deterministically"); only the tied *set* is memoized, not the pick.
///
/// Route tables are *bounded*: steady-state streams carry a handful of
/// shapes, but an adversarial workload can mint unbounded distinct label
/// sets. At `max_entries` a table is evicted wholesale (epoch reset —
/// O(1) amortised for workloads that merely drift); a workload that keeps
/// blowing through the cap (`kMaxResets` evictions) is genuinely
/// churn-heavy, so caching turns itself off and every decision falls back
/// to uncached matching — always correct, never unbounded memory.
///
/// Two memo flavours share one table (`SharedTable`): `ShapeMemo` belongs
/// to one entity, which at most one worker runs at a time, and frees what
/// it replaces; `SharedShapeMemo` belongs to a router (entity.hpp), which
/// every producer consults from its own thread, concurrently — its hits
/// take no lock.

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/annotations.hpp"
#include "snet/rtypes.hpp"
#include "snet/shapes.hpp"

namespace snet::detail {

/// Cap policy shared by every route table.
struct RouteTableBounds {
  static constexpr std::size_t kDefaultMaxEntries = 1024;
  static constexpr unsigned kMaxResets = 8;
};

/// Insert-only open-addressed map (linear probe, Fibonacci-mixed, load
/// <= 1/2) behind every route memo and the split's replica map. One
/// writer at a time: the owner serialises insert and clear.
///
/// With \p kConcurrentReaders (a router's memo, the split's replica map),
/// any number of readers may probe it at once: a slot's key and value are
/// written before its `full` flag is released, and are never written
/// again, so find() is a few acquire loads and no lock. Growth copies into
/// a table twice the size and publishes it; replaced tables (and those
/// clear() drops) stay allocated until the map is destroyed, because a
/// reader may still be probing them. Evictions are capped
/// (RouteTableBounds), so that retention is bounded too, and a returned
/// value's address is stable for the map's lifetime.
///
/// Without it (the memo of one entity) the writer is the only reader:
/// growth moves the entries and frees the replaced table, and clear()
/// frees the table, so the map never holds more than one table. A
/// returned address is stable until the next insert or clear.
template <class Key, class Value, bool kConcurrentReaders = true>
class SharedTable {
 public:
  SharedTable() = default;
  SharedTable(const SharedTable&) = delete;
  SharedTable& operator=(const SharedTable&) = delete;

  const Value* find(Key key) const {
    const Table* t = current_.load(std::memory_order_acquire);
    if (t == nullptr) {
      return nullptr;
    }
    for (std::size_t i = mix(key) & t->mask;; i = (i + 1) & t->mask) {
      const Slot& s = t->slots[i];
      if (!s.full.load(std::memory_order_acquire)) {
        return nullptr;
      }
      if (s.key == key) {
        return &s.value;
      }
    }
  }

  /// Inserts \p value under \p key (precondition: absent). Writer only.
  const Value* insert(Key key, Value value) {
    Table* t = current_.load(std::memory_order_relaxed);
    if (t == nullptr || (count_ + 1) * 2 > t->mask + 1) {
      t = grow(t);
    }
    Slot& s = free_slot(*t, key);
    s.key = key;
    s.value = std::move(value);
    s.full.store(true, std::memory_order_release);
    ++count_;
    return &s.value;
  }

  /// Forgets every entry. Writer only.
  void clear() {
    current_.store(nullptr, std::memory_order_release);
    count_ = 0;
    if constexpr (!kConcurrentReaders) {
      tables_.clear();
    }
  }

  /// Entries since the last clear; writer side (or quiescent).
  std::size_t size() const { return count_; }

  /// Slots allocated, current and retained tables together; writer side
  /// (or quiescent).
  std::size_t slots_held() const {
    std::size_t n = 0;
    for (const auto& t : tables_) {
      n += t->mask + 1;
    }
    return n;
  }

 private:
  struct Slot {
    std::atomic<bool> full{false};
    Key key{};
    Value value{};
  };
  struct Table {
    explicit Table(std::size_t n) : mask(n - 1), slots(new Slot[n]) {}
    std::size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  static std::size_t mix(Key key) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> 32);
  }

  static Slot& free_slot(Table& t, Key key) {
    std::size_t i = mix(key) & t.mask;
    while (t.slots[i].full.load(std::memory_order_relaxed)) {
      i = (i + 1) & t.mask;
    }
    return t.slots[i];
  }

  /// A table twice \p old's size holding its entries, published; \p old
  /// is kept for concurrent readers, or else emptied and freed.
  Table* grow(Table* old) {
    const std::size_t n = old == nullptr ? 16 : (old->mask + 1) * 2;
    auto fresh = std::make_unique<Table>(n);
    if (old != nullptr) {
      for (std::size_t i = 0; i <= old->mask; ++i) {
        Slot& s = old->slots[i];
        if (s.full.load(std::memory_order_relaxed)) {
          Slot& d = free_slot(*fresh, s.key);
          d.key = s.key;
          if constexpr (kConcurrentReaders) {
            d.value = s.value;
          } else {
            d.value = std::move(s.value);
          }
          d.full.store(true, std::memory_order_relaxed);
        }
      }
    }
    Table* raw = fresh.get();
    if constexpr (!kConcurrentReaders) {
      tables_.clear();
    }
    tables_.push_back(std::move(fresh));
    current_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<Table*> current_{nullptr};
  std::size_t count_ = 0;
  std::vector<std::unique_ptr<Table>> tables_;  // current, then retired
};

/// Per-shape memo table of one entity: one immutable value per record
/// shape, computed on first sight. Filters memoize their compiled plans,
/// boxes their emission plans, synchrocells a slot bitset. Unsynchronised
/// by design: the entity is run by at most one worker at a time.
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
  std::size_t slots_held() const { return table_.slots_held(); }
  unsigned resets() const { return resets_; }
  bool caching_disabled() const { return disabled_; }

 private:
  SharedTable<ShapeId, Value, /*kConcurrentReaders=*/false> table_;
  std::size_t max_entries_;
  unsigned resets_ = 0;
  bool disabled_ = false;
  Value scratch_{};  // the returned value while caching is disabled
  /// Inline run cache: the last shape seen and its table entry, cleared on
  /// eviction.
  ShapeId last_shape_ = 0;
  const Value* last_ = nullptr;
};

/// Per-shape memo of a router, consulted by all of its producers at once.
/// Same bounded policy as ShapeMemo, without the run cache (a shared one
/// would be written by every producer): a hit is one lock-free probe; a
/// miss fills outside the lock, then inserts under the memo's own mutex,
/// which ranks below the network's entity registry and is never held
/// across anything else.
template <class Value>
class SharedShapeMemo {
 public:
  explicit SharedShapeMemo(
      std::size_t max_entries = RouteTableBounds::kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {
    mu_.set_order(4, "router.memo");
  }

  /// The memoized value for \p shape, computing it via \p fill on a miss.
  /// The reference stays valid for the memo's lifetime, except while
  /// caching is disabled: then it refers to \p scratch, which holds the
  /// freshly filled value.
  template <class Fill>
  const Value& get_or(ShapeId shape, Value& scratch, Fill&& fill) {
    if (const Value* found = table_.find(shape)) {
      return *found;
    }
    scratch = fill();
    if (disabled_.load(std::memory_order_acquire)) {
      return scratch;
    }
    const snetsac::runtime::MutexLock lock(mu_);
    if (const Value* found = table_.find(shape)) {
      return *found;  // another producer filled it first
    }
    if (disabled_.load(std::memory_order_relaxed)) {
      return scratch;
    }
    if (table_.size() >= max_entries_) {
      table_.clear();
      const unsigned resets = resets_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (resets > RouteTableBounds::kMaxResets) {
        disabled_.store(true, std::memory_order_release);
        return scratch;
      }
    }
    return *table_.insert(shape, scratch);
  }

  std::size_t size() const {
    const snetsac::runtime::MutexLock lock(mu_);
    return table_.size();
  }
  unsigned resets() const { return resets_.load(std::memory_order_relaxed); }
  bool caching_disabled() const { return disabled_.load(std::memory_order_relaxed); }

 private:
  mutable snetsac::runtime::Mutex mu_;
  SharedTable<ShapeId, Value> table_;  // inserts and clears under mu_
  std::size_t max_entries_;
  std::atomic<unsigned> resets_{0};
  std::atomic<bool> disabled_{false};
};

class ParallelRouter {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit ParallelRouter(std::vector<MultiType> inputs,
                          std::size_t max_entries = RouteTableBounds::kDefaultMaxEntries)
      : inputs_(std::move(inputs)), memo_(max_entries) {}

  std::size_t branch_count() const { return inputs_.size(); }

  /// The branch index \p r routes to, or npos when no branch matches.
  /// Thread-safe: every producer of a parallel router calls it at once.
  std::size_t route(const Record& r) const {
    // A fresh shape scores every branch once, then collects the argmax set
    // (the same collection tied_for runs on types).
    std::vector<std::uint32_t> scratch;
    const std::vector<std::uint32_t>& tied = memo_.get_or(r.shape(), scratch, [&] {
      std::vector<int> scores;
      scores.reserve(inputs_.size());
      for (const MultiType& input : inputs_) {
        scores.push_back(input.match_score(r));
      }
      std::vector<std::uint32_t> set;
      collect_argmax(scores, set);
      return set;
    });
    if (tied.empty()) {
      return npos;
    }
    if (tied.size() == 1) {
      return tied.front();
    }
    return tied[tie_break_.fetch_add(1, std::memory_order_relaxed) % tied.size()];
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
  mutable SharedShapeMemo<std::vector<std::uint32_t>> memo_;
  mutable std::atomic<std::uint64_t> tie_break_{0};
};

}  // namespace snet::detail

#endif
