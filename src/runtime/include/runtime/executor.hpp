#ifndef SNETSAC_RUNTIME_EXECUTOR_HPP
#define SNETSAC_RUNTIME_EXECUTOR_HPP

/// \file executor.hpp
/// The unified work-stealing executor both layers of the system run on.
///
/// Historically the SaC layer (`parallel_for` with-loop chunks) and the
/// S-Net layer (entity quanta) each owned a mutex+condvar thread pool.
/// Running a data-parallel with-loop inside a box therefore oversubscribed
/// the machine (SNET_WORKERS + SAC_THREADS threads) and serialised all
/// dispatch through two global locks. This executor replaces both:
///
///  * one worker thread per core (see `default_executor_threads()`),
///  * a lock-free Chase–Lev deque per worker (chase_lev.hpp) — the owner
///    pushes/pops LIFO at the bottom without locks or (in the common case)
///    CAS; thieves steal FIFO from the top of a random victim, arbitrated
///    by a single CAS,
///  * an injector queue for submissions from non-worker threads,
///  * an epoch-stamped parking lot so idle workers sleep instead of
///    spinning, with the classic Dekker-style sleeper/epoch handshake to
///    rule out lost wakeups,
///  * `help_until`: the cooperative join primitive. A task that forks
///    subtasks (a with-loop splitting into chunks inside a box quantum)
///    does not block its worker; the worker executes queued tasks —
///    its own chunks first, then anything stealable — until the join
///    condition holds. This is what makes nested parallelism safe on a
///    fixed-size pool: no worker ever sleeps while runnable work exists,
///    so a fork inside a task cannot deadlock.
///
/// A task is just a closure: an S-Net entity quantum, a with-loop chunk,
/// or anything a client submits. Tasks must not block indefinitely on
/// other tasks except via `help_until`.
///
/// `ExecutorIface` is the seam the S-Net scheduler and network program
/// against: the production work-stealing pool implements it, and so does
/// `SimExecutor` (sim_executor.hpp) — the seedable single-threaded
/// scheduler the schedcheck harness uses to explore interleavings
/// deterministically. Clients that only need "run this closure, join on
/// that condition" take an ExecutorIface&.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/annotations.hpp"
#include "runtime/chase_lev.hpp"

namespace snetsac::runtime {

/// The executor contract: submit closures, cooperatively join. Virtual so
/// the deterministic SimExecutor can slot in behind the S-Net scheduler
/// without the protocol code knowing which world it runs in.
class ExecutorIface {
 public:
  virtual ~ExecutorIface() = default;

  /// Enqueues a task for asynchronous execution.
  virtual void submit(std::function<void()> task) = 0;

  /// Cooperative join: makes progress (runs queued tasks, or waits) until
  /// `done()` returns true. `done()` is always evaluated under \p mu;
  /// whatever makes it true must notify \p cv. A predicate that reads
  /// mu-guarded state should open with `mu.assert_held()` so the clang
  /// thread-safety analysis (which treats the lambda as a free function)
  /// accepts the access — checked builds verify the claim dynamically.
  virtual void help_until(Mutex& mu, CondVar& cv,
                          const std::function<bool()>& done) = 0;

  virtual unsigned size() const = 0;

  /// True for schedule-exploration executors that serialise all tasks and
  /// want every scheduling decision surfaced (the S-Net scheduler disables
  /// quantum tail-chaining when this is set, so each quantum is a distinct
  /// yield point the strategy can reorder).
  virtual bool deterministic() const { return false; }
};

class Executor : public ExecutorIface {
 public:
  /// Spawns \p threads workers. A count of 0 is promoted to 1.
  explicit Executor(unsigned threads);

  /// Drains every queued task, then joins the workers. Submitted work is
  /// never dropped (tasks may keep spawning tasks during the drain).
  ~Executor() override;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a task. Called from a worker of this executor, the task
  /// lands on that worker's own deque (LIFO, cache-warm); from any other
  /// thread it lands on the shared injector queue.
  void submit(std::function<void()> task) override;

  /// Cooperative join: runs queued tasks until `done()` returns true.
  ///
  /// From a worker thread of this executor the caller *helps*: it pops its
  /// own deque, the injector and other workers' deques between checks of
  /// `done()`, and only sleeps (briefly, on \p cv under \p mu) when no
  /// task is runnable anywhere. From a non-worker thread this degenerates
  /// to a plain condition-variable wait.
  void help_until(Mutex& mu, CondVar& cv,
                  const std::function<bool()>& done) override;

  unsigned size() const override { return static_cast<unsigned>(queues_.size()); }

  /// Tasks run over the executor's lifetime (observability).
  std::uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Tasks obtained by stealing from another worker's deque.
  std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  /// True while a task is executing on this thread *and* that task was
  /// obtained by stealing from another worker's deque. Lets clients (the
  /// S-Net scheduler) attribute pool-level steals to their own workload —
  /// the per-network counters in `NetworkStats`.
  static bool current_task_stolen();

  /// The process-wide executor shared by the SaC with-loop engine and
  /// every S-Net network. Sized by `default_executor_threads()` on first
  /// use. One pool, one set of threads — layering happens in the tasks,
  /// not in the threading substrate.
  static Executor& global();

 private:
  /// Tasks live on the heap while queued: the Chase–Lev ring holds raw
  /// pointers (its elements must be trivially copyable words).
  using TaskFn = std::function<void()>;

  /// True when the calling thread is one of this executor's workers: the
  /// branch help_until takes between helping and a plain wait.
  bool on_worker_thread() const;
  void worker_loop(unsigned index);
  /// Pops one runnable task (own deque → injector → steal); empty-handed
  /// returns false. \p self is the calling worker's shard index; \p stolen
  /// reports whether the task came off another worker's deque.
  bool pop_task(unsigned self, TaskFn& out, bool& stolen);
  bool try_run_one(unsigned self);

  std::vector<std::unique_ptr<ChaseLevDeque<TaskFn*>>> queues_;

  Mutex inject_mu_;
  std::deque<std::function<void()>> inject_ SNETSAC_GUARDED_BY(inject_mu_);

  // Parking lot. `work_epoch_` is bumped by every submit; a worker only
  // sleeps after re-reading the epoch while registered as a sleeper, so a
  // concurrent submit either sees the sleeper (and notifies) or the
  // sleeper sees the new epoch (and rescans). The wait predicate reads
  // atomics only — nothing is guarded by park_mu_; the lock exists purely
  // to sequence the sleeper/notifier handshake.
  Mutex park_mu_;
  CondVar park_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};

  std::vector<std::jthread> threads_;
};

}  // namespace snetsac::runtime

#endif
