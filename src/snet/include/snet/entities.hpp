#ifndef SNETSAC_SNET_ENTITIES_HPP
#define SNETSAC_SNET_ENTITIES_HPP

/// \file entities.hpp (internal)
/// Concrete runtime entities behind each topology construct. Not part of
/// the public API: clients interact with Net (topology) and Network.

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "snet/box.hpp"
#include "snet/detscope.hpp"
#include "snet/entity.hpp"
#include "snet/filter.hpp"
#include "snet/net.hpp"
#include "snet/network.hpp"
#include "snet/router.hpp"
#include "snet/shapes.hpp"

namespace snet::detail {

/// Terminal entity: demultiplexes records to their session's OutputPort.
/// It never waits and never refuses: every record is buffered in (or
/// pushed to the sink of) its session, in arrival order. A session whose
/// output credit account is exhausted is held back at its own inject gate
/// (SessionTable::inject), so this shared entity never head-of-line
/// blocks one session behind another.
class OutputEntity final : public Entity {
 public:
  explicit OutputEntity(Network& net) : Entity(net, "output") {}

 protected:
  void on_record(Record r) override;
  void on_quantum_end() override;

 private:
  /// Records staged across the quantum, handed to
  /// SessionTable::push_output_batch in one buffer-lock acquisition at quantum
  /// end (on_quantum_end runs before run_quantum's flush retires the
  /// records' live counts, so staged records are never dead). Worker-only.
  std::vector<Record> staged_ SNETSAC_GUARDED_BY(quantum_role_);
};

/// Head of the network: drains the per-session input staging queues into
/// the shared entry entity by weighted deficit-round-robin, so entry
/// bandwidth under contention is shared by session weight instead of by
/// arrival order — a hot tenant's backlog waits in its own staging queue
/// while lighter tenants' records keep being admitted. Receives no
/// records, only pokes (new listing, staging credit, un-throttle); the
/// listing handshake lives in SessionTable::list/take_ready.
class InputDispatchEntity final : public Entity {
 public:
  InputDispatchEntity(Network& net, Entity* entry)
      : Entity(net, "input"), entry_(entry) {}

 protected:
  void on_poke() override;

 private:
  /// Drops every staged record of a released/errored session.
  void drop_staged(SessionState* s) SNETSAC_REQUIRES(quantum_role_);
  /// Fires staging-queue credit waiters collected during a turn.
  void fire_released() SNETSAC_REQUIRES(quantum_role_);
  /// Flushes the forwarded records into the entry, then delists \p s
  /// (SessionTable::delist's contract).
  bool delist(SessionState* s) SNETSAC_REQUIRES(quantum_role_);

  Entity* entry_;
  /// DRR ring; dispatcher worker only.
  std::deque<SessionState*> active_ SNETSAC_GUARDED_BY(quantum_role_);
  /// Staging credit scratch.
  std::vector<std::function<void()>> released_ SNETSAC_GUARDED_BY(quantum_role_);
};

/// A box instance. Binds the declared input labels, runs the box function,
/// applies flow inheritance to every emission.
class BoxEntity final : public Entity, private BoxOutput {
 public:
  BoxEntity(Network& net, std::string name, Net node, Entity* successor);

 protected:
  void on_record(Record r) override;
  void emit(int variant, std::vector<BoxArg> args) override;

 private:
  /// Compiles every output variant's emission layout (declared labels →
  /// box-arg slots, flow-inherited input slots) against the current input
  /// record's shape.
  std::shared_ptr<const std::vector<CopyPlan>> compile_emit_plans() const
      SNETSAC_REQUIRES(quantum_role_);

  Net node_;
  Entity* succ_;
  RecordType input_type_;  // set view of the declared input (hoisted)
  /// Input being processed (for inheritance).
  const Record* current_ SNETSAC_GUARDED_BY(quantum_role_) = nullptr;
  /// Per-input-shape emission plans, one per output variant: the flow
  /// inheritance loops (per-label contains probes + sorted inserts) run
  /// once per shape, then every emission is a flat slot copy.
  ShapeMemo<std::shared_ptr<const std::vector<CopyPlan>>> emit_plans_
      SNETSAC_GUARDED_BY(quantum_role_);
};

/// A filter instance.
class FilterEntity final : public Entity {
 public:
  FilterEntity(Network& net, std::string name, Net node, Entity* successor);

 protected:
  void on_record(Record r) override;

 private:
  Net node_;
  Entity* succ_;
  /// Per-shape memo fusing the pattern's *type* match with the compiled
  /// copy plans: null means the type does not match (the record falls back
  /// to apply() for the unmemoized error), non-null replays the compiled
  /// specifier + flow inheritance as flat slot moves. Guards, which depend
  /// on tag values rather than the label set, are evaluated per record.
  ShapeMemo<std::shared_ptr<const FilterSpec::Compiled>> plans_
      SNETSAC_GUARDED_BY(quantum_role_);
};

/// Parallel-composition router: best-match routing over branch input
/// types; ties alternate (the non-deterministic choice). The decision is
/// memoized per record shape (see router.hpp), so steady-state routing is
/// one lock-free lookup instead of a per-variant label scan.
class ParallelEntity final : public Router {
 public:
  struct Branch {
    MultiType input;
    Entity* entry;
  };
  ParallelEntity(Network& net, std::string name, std::vector<Branch> branches);

  Entity* pick(const Record& r) override;

 private:
  std::vector<Entity*> entries_;
  ParallelRouter router_;
};

/// Lock rank of a router's instantiation mutex: below the network's entity
/// registry (5), which instantiation takes inside it.
inline constexpr unsigned kUnfoldLockRank = 3;

/// One stage of a serial replication: "the chain is tapped before every
/// replica to extract records that match the type". Non-matching records
/// enter this stage's replica, whose output feeds the next stage —
/// created on demand ("the unfolding of the chain of networks is
/// demand-driven").
class StarStageEntity final : public Router {
 public:
  StarStageEntity(Network& net, std::string prefix, Net node, Entity* exit_target,
                  unsigned stage);

  Entity* pick(const Record& r) override;

 private:
  /// This stage's replica entry, instantiated with the next stage by the
  /// first record that does not exit here.
  Entity* unfold();

  std::string prefix_;
  Net node_;  // the Star node
  Entity* exit_target_;
  unsigned stage_;
  /// Published (release) once the replica is fully built; null before.
  std::atomic<Entity*> replica_entry_{nullptr};
  snetsac::runtime::Mutex unfold_mu_;
  /// Per-shape memo of the exit pattern's type match (guard per record).
  SharedShapeMemo<bool> exit_type_match_;
};

/// Parallel replication router: routes on the value of the split tag; "it
/// is guaranteed that any two records whose replication tags have the
/// same (integer) value are sent to the same replica."
class SplitEntity final : public Router {
 public:
  SplitEntity(Network& net, std::string prefix, Net node, Entity* successor);

  Entity* pick(const Record& r) override;

 private:
  std::string prefix_;
  Net node_;  // the Split node
  Entity* succ_;
  snetsac::runtime::Mutex unfold_mu_;
  /// Tag value → replica entry. Lookups are lock-free; a missing replica
  /// is instantiated and inserted under unfold_mu_.
  SharedTable<std::int64_t, Entity*> replicas_;
};

/// Entry of a deterministic region: stamps records with fresh group
/// sequence numbers.
class DetEntryEntity final : public Entity {
 public:
  DetEntryEntity(Network& net, std::string name, DetScope* scope);
  void set_target(Entity* target) { target_ = target; }

 protected:
  void on_record(Record r) override;

 private:
  DetScope* scope_;
  Entity* target_ = nullptr;
};

/// Exit of a deterministic region: holds records per group and releases
/// groups strictly in sequence order once they have drained upstream.
/// Under backpressure a release pauses mid-group (the deque keeps the
/// resume point) and continues when the downstream credit returns — the
/// resume poke re-enters on_poke even with an empty inbox. Records
/// are held through Interior::hold (the per-session cap, its overflow
/// policy and the disk spill), in arrival order whether in memory or on
/// disk.
class DetCollectorEntity final : public Entity {
 public:
  DetCollectorEntity(Network& net, std::string name, Entity* successor);

  DetScope* scope() { return &scope_; }

 protected:
  void on_record(Record r) override;
  void on_poke() override;

 private:
  DetScope scope_;
  Entity* succ_;
  /// Each open det group's held records, in arrival order.
  std::map<std::uint64_t, std::deque<Held>> buffer_ SNETSAC_GUARDED_BY(quantum_role_);
  std::uint64_t next_release_ SNETSAC_GUARDED_BY(quantum_role_) = 0;
};

/// Synchrocell: stores one record per pattern; when all patterns are
/// filled, emits the merged record and becomes the identity. Storage goes
/// through Interior::hold like a det collector's, and a poke evicts slots
/// stored by sessions that were failed fast or released — a dead
/// tenant's contribution must not hold the shared cell (and its own
/// liveness) forever.
class SyncEntity final : public Entity {
 public:
  SyncEntity(Network& net, std::string name, Net node, Entity* successor);

 protected:
  void on_record(Record r) override;
  void on_poke() override;

 private:
  /// One pattern's stored contribution. `session` is cached so the
  /// eviction sweep can test owner liveness without restoring a slot
  /// parked on disk.
  struct Slot {
    std::optional<Held> held;
    SessionState* session = nullptr;

    bool filled() const { return held.has_value(); }
  };

  /// Pattern indices whose *type* matches records of a given shape, as a
  /// bitset (synchrocells have a handful of patterns; >64 falls back to
  /// unmemoized matching). Guards are evaluated per record.
  std::uint64_t slot_type_matches(const Record& r)
      SNETSAC_REQUIRES(quantum_role_);

  /// Empties \p slot and retires its record as consumed (its live count
  /// and det stamps); returns the record for merging.
  Record consume(Slot& slot) SNETSAC_REQUIRES(quantum_role_);

  Net node_;
  Entity* succ_;
  std::vector<Slot> slots_ SNETSAC_GUARDED_BY(quantum_role_);
  ShapeMemo<std::uint64_t> slot_match_ SNETSAC_GUARDED_BY(quantum_role_);
  bool fired_ SNETSAC_GUARDED_BY(quantum_role_) = false;
};

}  // namespace snet::detail

#endif
