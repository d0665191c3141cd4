#ifndef SNETSAC_RUNTIME_SIM_EXECUTOR_HPP
#define SNETSAC_RUNTIME_SIM_EXECUTOR_HPP

/// \file sim_executor.hpp
/// A seedable, deterministic schedule-exploration executor.
///
/// The production Executor explores whatever interleavings the OS
/// scheduler happens to produce; TSan observes those and no others. The
/// SimExecutor turns scheduling into a *controlled input*: every task
/// (entity quantum, injected client step) goes into one pending set, all
/// execution is serialised onto the calling thread, and at each step a
/// strategy — seeded PCT-style randomized priorities, uniform random, or
/// exact replay — picks which pending task runs next. Two runs with the
/// same seed execute the identical schedule; a protocol violation found
/// at seed N is reproducible forever by rerunning seed N.
///
/// Yield points are the task boundaries: the S-Net scheduler disables
/// quantum tail-chaining when `deterministic()` is true, so every entity
/// quantum — and therefore every enqueue, drain, stall, credit release
/// and emission flush, each of which ends or starts a quantum —
/// is a distinct scheduling decision the strategy can reorder.
///
/// `help_until` is the pump: the (single) client thread runs pending
/// tasks until its join condition holds. If the pending set empties while
/// the condition is still false, no future task can ever satisfy it —
/// that is a deadlock or a lost wakeup, and the executor throws
/// ProtocolInvariantError carrying the full decision trace.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/invariants.hpp"

namespace snetsac::runtime {

class SimExecutor final : public ExecutorIface {
 public:
  enum class Strategy {
    kPct,     ///< randomized priorities + a few priority-change points
    kRandom,  ///< uniform random pick among pending tasks
    kReplay,  ///< follow Options::replay choices, then first-pending
  };

  struct Options {
    std::uint64_t seed = 1;
    Strategy strategy = Strategy::kPct;
    /// PCT: how many priority-change points to scatter over the run
    /// (d in the PCT paper; depth d+1 bugs need d change points).
    unsigned pct_change_points = 3;
    /// Replay: the choice at each decision step (index into the pending
    /// set); steps beyond the vector pick index 0. Taken from a previous
    /// run's choice_log() — the DFS driver's frontier.
    std::vector<std::uint32_t> replay;
  };

  /// One scheduling decision: at decision step `step`, task `task_id` was
  /// picked out of `pending` runnable tasks (choice index `chosen`).
  struct TraceEntry {
    std::uint64_t step;
    std::uint64_t task_id;
    std::uint32_t chosen;
    std::uint32_t pending;
  };

  explicit SimExecutor(Options opts);

  void submit(std::function<void()> task) override;
  void help_until(Mutex& mu, CondVar& cv,
                  const std::function<bool()>& done) override;
  unsigned size() const override { return 1; }
  bool deterministic() const override { return true; }

  /// Runs one pending task chosen by the strategy; false when none are
  /// pending. Re-entrant: a task may pump nested help_until joins.
  bool step();

  /// Drains the pending set to empty (e.g. after a scenario completes,
  /// to retire cleanup pokes before destruction).
  void drain();

  /// Invoked after every task returns (at every yield point), with no
  /// simulated locks held — the hook for Network::check_protocol_invariants.
  void set_after_task(std::function<void()> hook) { after_task_ = std::move(hook); }

  /// The scheduling decisions taken so far, oldest first.
  const std::vector<TraceEntry>& trace() const { return trace_; }

  /// The (chosen, n_options) log in replay format: feeding this back via
  /// Options::replay reproduces the schedule exactly; the DFS driver
  /// increments the deepest incrementable entry to visit a sibling.
  const std::vector<std::uint32_t>& choice_log() const { return choices_; }
  const std::vector<std::uint32_t>& option_counts() const { return options_seen_; }

  std::uint64_t steps_executed() const { return step_count_; }
  std::size_t pending() const { return pending_.size(); }

  /// Human-readable decision trace ("step 12: task 7 (choice 1/3)...").
  std::string format_trace() const;

 private:
  struct Pending {
    std::function<void()> fn;
    std::uint64_t id;
    std::uint64_t priority;  // PCT: higher runs first
  };

  std::uint64_t next_rand();
  std::size_t pick();
  [[noreturn]] void wedged(const char* waiting_on);

  Options opts_;
  std::uint64_t rng_state_;
  std::vector<Pending> pending_;
  std::uint64_t next_task_id_ = 0;
  std::uint64_t step_count_ = 0;
  std::uint64_t low_priority_ = 0;  // PCT demotion counter (counts down)
  std::vector<std::uint64_t> change_steps_;  // PCT priority-change points
  std::size_t replay_pos_ = 0;
  std::vector<TraceEntry> trace_;
  std::vector<std::uint32_t> choices_;
  std::vector<std::uint32_t> options_seen_;
  std::function<void()> after_task_;
};

}  // namespace snetsac::runtime

#endif
