#ifndef SNETSAC_RUNTIME_MPSC_QUEUE_HPP
#define SNETSAC_RUNTIME_MPSC_QUEUE_HPP

/// \file mpsc_queue.hpp
/// Multi-producer single-consumer queue used as the inbox of every S-Net
/// runtime entity. Many upstream streams may feed the same inbox — that is
/// exactly the non-deterministic merge of the paper's parallel combinator:
/// "any record produced proceeds as soon as possible".
///
/// The queue has an optional *bounded* mode (`set_capacity`): producers can
/// ask whether a push crossed the bound (`PushResult::congested`), reject a
/// push outright (`try_push`), or register a credit waiter that fires once
/// the consumer drains the queue back below the release watermark
/// (`wait_for_credit` / `take_released`). The bound is a soft one by
/// design: an unconditional `push` always succeeds — a producer that is
/// mid-record finishes its emissions and *then* suspends — so overshoot is
/// bounded by the emissions of one record per producer, never unbounded.
///
/// The consumer side is only ever touched by the scheduler worker that is
/// currently running the owning entity, so a mutex-protected contiguous
/// ring (vector + head index) is both simple and adequate (Core Guidelines
/// CP.1/CP.2: correctness first; the queue is the *only* shared state, and
/// the lock is held for O(1) amortised work). The vector storage exists for
/// the batched paths: a full `drain_into` is an O(1) buffer swap, and
/// `push_all` is a contiguous move — no per-element deque block churn.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/annotations.hpp"

namespace snetsac::runtime {

template <class T>
class MpscQueue {
 public:
  struct PushResult {
    bool was_empty = false;  // the consumer may need waking
    bool congested = false;  // the producer should back off
  };

  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Enables bounded mode: \p cap elements (0 = unbounded). The release
  /// watermark is cap/2 — credit waiters fire only once the consumer has
  /// drained half the bound, so producers do not thrash at the boundary.
  void set_capacity(std::size_t cap) {
    const MutexLock lock(mu_);
    capacity_ = cap;
  }

  std::size_t capacity() const {
    const MutexLock lock(mu_);
    return capacity_;
  }

  /// Pushes an element unconditionally (see file comment: the bound is
  /// soft for in-flight producers). Reports both whether the queue was
  /// empty beforehand and whether it is now at/over capacity.
  PushResult push(T value) {
    const MutexLock lock(mu_);
    PushResult res;
    res.was_empty = len() == 0;
    items_.push_back(std::move(value));
    res.congested = capacity_ != 0 && len() >= capacity_;
    return res;
  }

  /// Batched push, the producer-side sibling of `drain_into`: moves every
  /// element of \p values into the queue under one lock acquisition and
  /// clears \p values. Like `push` the bound is soft — the batch always
  /// lands in full (a producer flushing its emission buffer must not have
  /// to unpick a half-accepted quantum) — and the result reports
  /// emptiness before the batch and congestion after it, so the caller
  /// wakes the consumer once and backs off once per batch instead of per
  /// record.
  PushResult push_all(std::vector<T>& values) {
    PushResult res;
    if (values.empty()) {
      const MutexLock lock(mu_);
      res.was_empty = len() == 0;
      res.congested = capacity_ != 0 && len() >= capacity_;
      return res;
    }
    {
      const MutexLock lock(mu_);
      res.was_empty = len() == 0;
      if (res.was_empty && items_.capacity() < values.capacity()) {
        // Empty queue: adopt the batch buffer outright — the producer's
        // emission buffer and the inbox trade places instead of copying.
        items_.clear();
        head_ = 0;
        items_.swap(values);
      } else {
        items_.insert(items_.end(), std::make_move_iterator(values.begin()),
                      std::make_move_iterator(values.end()));
      }
      res.congested = capacity_ != 0 && len() >= capacity_;
    }
    values.clear();
    return res;
  }

  /// Bounded push: refuses (and leaves \p value untouched) when the queue
  /// is at capacity. This is the hard edge of the bound, used by client
  /// injection (`InputPort::try_inject`) rather than by in-flight records.
  bool try_push(T& value) {
    const MutexLock lock(mu_);
    if (capacity_ != 0 && len() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(value));
    return true;
  }

  /// Batched pop: moves up to \p max_n oldest elements into \p out
  /// (appending), taking the lock once for the whole batch. Returns the
  /// number of elements moved. This is the consumer's fast path — an
  /// entity quantum drains its inbox with one lock acquisition instead of
  /// one per message. Call `take_released` afterwards to collect credit
  /// waiters the drain made runnable.
  std::size_t drain_into(std::vector<T>& out, std::size_t max_n) {
    const MutexLock lock(mu_);
    const std::size_t n = std::min(max_n, len());
    if (n == 0) {
      return 0;
    }
    if (out.empty() && head_ == 0 && n == items_.size()) {
      // Full drain into an empty batch buffer: swap, O(1).
      out.swap(items_);
      return n;
    }
    out.insert(out.end(), std::make_move_iterator(items_.begin() + head_),
               std::make_move_iterator(items_.begin() + head_ + n));
    advance(n);
    return n;
  }

  /// Pops the oldest element if present.
  std::optional<T> try_pop() {
    const MutexLock lock(mu_);
    if (len() == 0) {
      return std::nullopt;
    }
    std::optional<T> out(std::move(items_[head_]));
    advance(1);
    return out;
  }

  /// Single-lock pop-and-release: pops the oldest element (if any) and, in
  /// the same critical section, moves out credit waiters the pop made
  /// runnable (the `take_released` watermark rule). The consumer's
  /// per-record fast path — the S-Net input dispatcher pops one staged
  /// record per DRR grant and must not pay a second lock acquisition to
  /// check the credit list each time. Waiters are invoked by the caller
  /// outside the lock.
  std::optional<T> try_pop_collect(std::vector<std::function<void()>>& released) {
    const MutexLock lock(mu_);
    if (len() == 0) {
      return std::nullopt;
    }
    std::optional<T> out(std::move(items_[head_]));
    advance(1);
    if (!waiters_.empty() && (capacity_ == 0 || len() <= capacity_ / 2)) {
      released.insert(released.end(), std::make_move_iterator(waiters_.begin()),
                      std::make_move_iterator(waiters_.end()));
      waiters_.clear();
    }
    return out;
  }

  bool empty() const {
    const MutexLock lock(mu_);
    return len() == 0;
  }

  std::size_t size() const {
    const MutexLock lock(mu_);
    return len();
  }

  /// True when bounded and currently at/over capacity.
  bool congested() const {
    const MutexLock lock(mu_);
    return capacity_ != 0 && len() >= capacity_;
  }

  /// Credit protocol, producer side: registers \p cb to be fired once the
  /// consumer drains the queue to the release watermark. Returns false —
  /// without registering — when credit is already available (unbounded, or
  /// below capacity): the caller should simply proceed/retry instead of
  /// waiting. At most one firing per registration.
  bool wait_for_credit(std::function<void()> cb) {
    const MutexLock lock(mu_);
    if (capacity_ == 0 || len() < capacity_) {
      return false;
    }
    waiters_.push_back(std::move(cb));
    return true;
  }

  /// Credit protocol, consumer side: moves out every registered waiter
  /// when the queue has drained to the release watermark (cap/2). The
  /// caller invokes them *outside* the lock — a waiter typically
  /// re-enqueues a suspended entity into the scheduler.
  void take_released(std::vector<std::function<void()>>& out) {
    const MutexLock lock(mu_);
    if (waiters_.empty() || (capacity_ != 0 && len() > capacity_ / 2)) {
      return;
    }
    out.insert(out.end(), std::make_move_iterator(waiters_.begin()),
               std::make_move_iterator(waiters_.end()));
    waiters_.clear();
  }

  /// Diagnostic for the invariant layer: true when credit waiters are
  /// registered although the queue is at/below the release watermark — a
  /// drain happened and nobody collected the released waiters, i.e. a
  /// producer will sleep forever on credit that already exists. Only
  /// meaningful at a quiescent point (between consumer steps): mid-drain
  /// the consumer simply has not called take_released *yet*.
  bool lost_wakeup_suspected() const {
    const MutexLock lock(mu_);
    return !waiters_.empty() && (capacity_ == 0 || len() <= capacity_ / 2);
  }

  /// Registered-but-unfired credit waiters (observability/invariants).
  std::size_t waiter_count() const {
    const MutexLock lock(mu_);
    return waiters_.size();
  }

  /// Declares the internal mutex's position in the global lock order
  /// (checked builds; see Mutex::set_order).
  void set_lock_order(unsigned rank, const char* name) {
    mu_.set_order(rank, name);
  }

 private:
  std::size_t len() const SNETSAC_REQUIRES(mu_) { return items_.size() - head_; }

  /// Consumes \p n elements from the front; resets the buffer once fully
  /// drained so the dead prefix of moved-from slots never grows past one
  /// producer burst.
  void advance(std::size_t n) SNETSAC_REQUIRES(mu_) {
    head_ += n;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  mutable Mutex mu_;
  std::vector<T> items_ SNETSAC_GUARDED_BY(mu_);   // live elements: items_[head_..)
  std::size_t head_ SNETSAC_GUARDED_BY(mu_) = 0;   // consumed prefix
  std::size_t capacity_ SNETSAC_GUARDED_BY(mu_) = 0;  // 0 = unbounded
  std::vector<std::function<void()>> waiters_ SNETSAC_GUARDED_BY(mu_);
};

}  // namespace snetsac::runtime

#endif
