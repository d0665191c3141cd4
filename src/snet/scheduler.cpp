#include "snet/scheduler.hpp"

#include <vector>

#include "snet/entity.hpp"

namespace snet {

using snetsac::runtime::MutexLock;

Scheduler::Scheduler(snetsac::runtime::ExecutorIface& exec,
                     unsigned max_concurrency, unsigned quantum)
    : exec_(exec),
      limit_(max_concurrency == 0 ? 1U : max_concurrency),
      quantum_(quantum == 0 ? 1U : quantum) {
  mu_.set_order(40, "scheduler.mu");
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::fill_locked(std::vector<Entity*>& batch) {
  // Reserves a window slot AND a lifetime pin per dispatched entity; the
  // matching releases happen in run_one.
  while (!stopping_ && slots_ < limit_ && !ready_.empty()) {
    batch.push_back(ready_.front());
    ready_.pop_front();
    ++slots_;
    ++active_;
    ++quanta_;
  }
}

void Scheduler::submit_batch(const std::vector<Entity*>& batch) {
  // The batch's active_ reservations (taken under mu_ before this call)
  // keep the scheduler alive across these submits: stop() cannot return
  // while active_ > 0.
  for (Entity* e : batch) {
    exec_.submit([this, e] { run_one(e); });
  }
}

void Scheduler::enqueue(Entity* entity, bool urgent) {
  std::vector<Entity*> batch;
  {
    const MutexLock lock(mu_);
    if (stopping_) {
      return;  // teardown: pending entities are dropped, as before
    }
    if (urgent) {
      ready_.push_front(entity);
    } else {
      ready_.push_back(entity);
    }
    fill_locked(batch);
  }
  submit_batch(batch);
}

void Scheduler::run_one(Entity* entity) {
  // Tail-chaining: after a quantum, continue inline with the oldest ready
  // entity instead of bouncing every link of a sequential chain through
  // the executor (the common S-Net shape: a record walking a pipeline).
  // Bounded so a busy network still yields the worker; everything beyond
  // the inline continuation is submitted for other workers to pick up.
  // Under a deterministic (schedule-exploration) executor chaining is
  // disabled outright: every quantum must surface as its own task so the
  // strategy can interleave it against the rest of the pending set.
  const int kMaxChain = exec_.deterministic() ? 0 : 64;
  // Attribute the executor-level steal (if any) to this network. Only the
  // dispatched task itself can have been stolen; tail-chained entities run
  // inline on the same worker.
  if (snetsac::runtime::Executor::current_task_stolen()) {
    steals_.fetch_add(1, std::memory_order_relaxed);
  }
  Entity* current = entity;
  int chained = 0;
  while (current != nullptr) {
    // run_quantum never throws (entity errors are routed to SessionTable::fail),
    // so the bookkeeping below is unconditionally reached.
    current->run_quantum(quantum_);
    std::vector<Entity*> batch;
    Entity* next = nullptr;
    {
      const MutexLock lock(mu_);
      // Release the window slot *before* refilling: the finishing task
      // must take dispatch responsibility for whatever is ready, even when
      // quanta dispatched earlier have not released their slots yet (they
      // refilled before we existed and will not look again).
      --slots_;
      fill_locked(batch);
      if (!batch.empty() && ++chained <= kMaxChain) {
        next = batch.front();
        batch.erase(batch.begin());
      }
      // Release our lifetime pin. The pins fill_locked reserved for batch
      // and next keep the scheduler alive past this critical section, so
      // active_ can only drain to zero when there is nothing left to do —
      // and then stop() may destroy the scheduler the moment we unlock.
      if (--active_ == 0) {
        idle_cv_.notify_all();
      }
    }
    if (!batch.empty()) {
      submit_batch(batch);  // safe: the batch's own pins hold the scheduler
    }
    current = next;  // safe: next's pin holds the scheduler
  }
}

void Scheduler::stop() {
  {
    const MutexLock lock(mu_);
    stopping_ = true;
    ready_.clear();  // teardown drops not-yet-dispatched entities, as before
  }
  // Wait for in-flight quanta. help_until keeps executing tasks when we
  // are on an executor worker (e.g. a network destroyed inside a box), so
  // the quanta we wait for can still be run. Idempotent: a second call
  // sees active_ == 0 and returns immediately.
  exec_.help_until(mu_, idle_cv_, [&] {
    mu_.assert_held();
    return active_ == 0;
  });
}

std::uint64_t Scheduler::quanta_executed() const {
  const MutexLock lock(mu_);
  return quanta_;
}

}  // namespace snet
