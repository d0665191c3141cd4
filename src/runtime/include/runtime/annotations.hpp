#ifndef SNETSAC_RUNTIME_ANNOTATIONS_HPP
#define SNETSAC_RUNTIME_ANNOTATIONS_HPP

/// \file annotations.hpp
/// Clang thread-safety annotations plus the annotated synchronisation
/// primitives the runtime and S-Net layers build on.
///
/// The concurrency substrate (credit/backpressure, per-session output accounts,
/// DRR dispatch, the executor's parking lot) keeps its lock discipline in
/// prose today; this header makes it *compiler-checked*:
///
///  * under clang, `-Wthread-safety` (CI runs `-Werror=thread-safety`)
///    statically verifies every access to a `SNETSAC_GUARDED_BY` field
///    happens with the right capability held — a misuse is a build
///    failure, not a rare TSan interleaving;
///  * under any other compiler the macros expand to nothing, so g++
///    builds are untouched;
///  * under `SNETSAC_CHECKED` (see invariants.hpp) the same wrappers gain
///    a *dynamic* lock-order registry: ranked mutexes abort the process
///    of acquiring out of order (the cycle that deadlocks once a year in
///    production dies in the first schedcheck seed instead).
///
/// The std primitives carry no annotations, so the annotated story needs
/// thin wrappers: `Mutex` (capability), `MutexLock`/`UniqueLock` (scoped
/// capabilities), `CondVar` (waits on a UniqueLock), and `ThreadRole` — a
/// virtual capability for data that is not protected by any mutex but by
/// the *protocol* guarantee that at most one worker runs a given entity at
/// a time (the Entity state machine). Acquiring the role is free; the
/// point is that clang now proves every touch of worker-only state happens
/// inside a quantum.

#include <mutex>
#include <condition_variable>

#include "runtime/invariants.hpp"

// -------------------------------------------------------------- attributes

#if defined(__clang__) && !defined(SNETSAC_NO_THREAD_SAFETY_ANALYSIS_MACROS)
#define SNETSAC_TSA(x) __attribute__((x))
#else
#define SNETSAC_TSA(x)  // no-op off clang
#endif

#define SNETSAC_CAPABILITY(x) SNETSAC_TSA(capability(x))
#define SNETSAC_SCOPED_CAPABILITY SNETSAC_TSA(scoped_lockable)
#define SNETSAC_GUARDED_BY(x) SNETSAC_TSA(guarded_by(x))
#define SNETSAC_PT_GUARDED_BY(x) SNETSAC_TSA(pt_guarded_by(x))
#define SNETSAC_REQUIRES(...) SNETSAC_TSA(requires_capability(__VA_ARGS__))
#define SNETSAC_ACQUIRE(...) SNETSAC_TSA(acquire_capability(__VA_ARGS__))
#define SNETSAC_RELEASE(...) SNETSAC_TSA(release_capability(__VA_ARGS__))
#define SNETSAC_TRY_ACQUIRE(...) SNETSAC_TSA(try_acquire_capability(__VA_ARGS__))
#define SNETSAC_EXCLUDES(...) SNETSAC_TSA(locks_excluded(__VA_ARGS__))
#define SNETSAC_ASSERT_CAPABILITY(x) SNETSAC_TSA(assert_capability(x))
#define SNETSAC_RETURN_CAPABILITY(x) SNETSAC_TSA(lock_returned(x))
#define SNETSAC_NO_TSA SNETSAC_TSA(no_thread_safety_analysis)

namespace snetsac::runtime {

// ------------------------------------------------------------------- Mutex

/// An annotated std::mutex. In checked builds it also participates in the
/// dynamic lock-order registry: `set_order(rank, name)` declares its
/// position in the global acquisition order (lower ranks acquire first),
/// and any thread that locks it while holding a same-or-higher rank aborts
/// with both names — a cycle between out_mu_/dispatch_mu_/inbox mutexes
/// cannot survive a single exercised interleaving.
class SNETSAC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SNETSAC_ACQUIRE() {
#if SNETSAC_CHECKED
    checked::note_lock_attempt(this, rank_, name_);
#endif
    mu_.lock();
#if SNETSAC_CHECKED
    checked::note_locked(this, rank_, name_);
#endif
  }

  void unlock() SNETSAC_RELEASE() {
#if SNETSAC_CHECKED
    checked::note_unlocked(this);
#endif
    mu_.unlock();
  }

  /// Static assertion hand-off for code clang cannot follow (a wait
  /// predicate evaluated inside std::condition_variable::wait, a callback
  /// invoked under a caller's lock): tells the analysis — and, in checked
  /// builds, dynamically verifies — that the calling thread holds this
  /// mutex.
  void assert_held() const SNETSAC_ASSERT_CAPABILITY(this) {
#if SNETSAC_CHECKED
    checked::assert_thread_holds(this, name_);
#endif
  }

  /// Declares this mutex's position in the global lock order (checked
  /// builds only; a rank of 0 opts out of order checking). Call once,
  /// before the mutex is shared.
  void set_order(unsigned rank, const char* name) {
#if SNETSAC_CHECKED
    rank_ = rank;
    name_ = name;
#else
    (void)rank;
    (void)name;
#endif
  }

  /// The wrapped mutex, for std::condition_variable interop (UniqueLock).
  std::mutex& native() { return mu_; }

  /// Declared order position (0 when unranked or in unchecked builds).
  unsigned order_rank() const {
#if SNETSAC_CHECKED
    return rank_;
#else
    return 0;
#endif
  }
  const char* order_name() const {
#if SNETSAC_CHECKED
    return name_;
#else
    return "mutex";
#endif
  }

 private:
  std::mutex mu_;
#if SNETSAC_CHECKED
  unsigned rank_ = 0;
  const char* name_ = "mutex";
#endif
};

// ------------------------------------------------------------- MutexLock

/// std::lock_guard over Mutex, visible to the analysis.
class SNETSAC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SNETSAC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SNETSAC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// ------------------------------------------------------------- UniqueLock

/// std::unique_lock over Mutex: relockable scoped capability, and the
/// handle a CondVar waits on. The condition variable's internal
/// release/re-acquire is invisible to the analysis (and to the checked
/// registry) by design — the lock is held again before wait() returns, so
/// the capability state is accurate at every point client code runs.
class SNETSAC_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) SNETSAC_ACQUIRE(mu)
      : mu_(mu), lock_(mu.native(), std::defer_lock) {
    acquire_tracked();
  }

  ~UniqueLock() SNETSAC_RELEASE() {
    if (lock_.owns_lock()) {
      release_tracked();
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() SNETSAC_ACQUIRE() { acquire_tracked(); }
  void unlock() SNETSAC_RELEASE() { release_tracked(); }
  bool owns_lock() const { return lock_.owns_lock(); }

  /// For CondVar only.
  std::unique_lock<std::mutex>& native() { return lock_; }
  Mutex& mutex() { return mu_; }

 private:
  void acquire_tracked() SNETSAC_NO_TSA {
#if SNETSAC_CHECKED
    checked::note_lock_attempt(&mu_, mu_.order_rank(), mu_.order_name());
#endif
    lock_.lock();
#if SNETSAC_CHECKED
    checked::note_locked(&mu_, mu_.order_rank(), mu_.order_name());
#endif
  }

  void release_tracked() SNETSAC_NO_TSA {
#if SNETSAC_CHECKED
    checked::note_unlocked(&mu_);
#endif
    lock_.unlock();
  }

  Mutex& mu_;
  std::unique_lock<std::mutex> lock_;
};

// ---------------------------------------------------------------- CondVar

/// Annotated condition variable over `Mutex`/`UniqueLock`. Predicates are
/// evaluated by the std machinery with the lock held; a predicate that
/// reads guarded state should open with `mu.assert_held()` so the analysis
/// (which treats the lambda as a free function) knows the capability is in
/// fact held — and so checked builds verify it dynamically.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }

  template <class Pred>
  void wait(UniqueLock& lock, Pred pred) {
    cv_.wait(lock.native(), std::move(pred));
  }

  template <class Rep, class Period, class Pred>
  bool wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& d,
                Pred pred) {
    return cv_.wait_for(lock.native(), d, std::move(pred));
  }

  template <class Rep, class Period>
  void wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& d) {
    cv_.wait_for(lock.native(), d);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ------------------------------------------------------------- ThreadRole

/// A virtual capability for *protocol-serialised* state: data touched by
/// at most one thread at a time not because a mutex says so but because a
/// state machine does (an Entity's quantum: the idle/queued/running CAS
/// handshake guarantees a single runner). Acquire/release are free; the
/// value is that clang now proves worker-only fields (`batch_`, the
/// emission buffers, the DRR ring) are only touched inside a quantum,
/// and checked builds verify the same claim dynamically.
class SNETSAC_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void acquire() SNETSAC_ACQUIRE() {
#if SNETSAC_CHECKED
    // note_lock_attempt's recursive-acquisition check catches same-thread
    // re-entry into a quantum frame (an entity running itself again
    // through a nested drain).
    checked::note_lock_attempt(this, 0, "role");
    checked::note_locked(this, 0, "role");
#endif
  }

  void release() SNETSAC_RELEASE() {
#if SNETSAC_CHECKED
    checked::note_unlocked(this);
#endif
  }

  /// See Mutex::assert_held — the hand-off for virtual overrides invoked
  /// from inside a quantum (on_record and friends), where annotating every
  /// override signature is brittler than asserting at entry.
  void assert_held() const SNETSAC_ASSERT_CAPABILITY(this) {
#if SNETSAC_CHECKED
    checked::assert_thread_holds(this, "role");
#endif
  }
};

/// Scoped ThreadRole holder (run_quantum's frame).
class SNETSAC_SCOPED_CAPABILITY RoleGuard {
 public:
  explicit RoleGuard(ThreadRole& role) SNETSAC_ACQUIRE(role) : role_(role) {
    role_.acquire();
  }
  ~RoleGuard() SNETSAC_RELEASE() { role_.release(); }

  RoleGuard(const RoleGuard&) = delete;
  RoleGuard& operator=(const RoleGuard&) = delete;

 private:
  ThreadRole& role_;
};

}  // namespace snetsac::runtime

#endif
