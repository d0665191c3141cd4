#ifndef SNETSAC_SNET_TOPOLOGY_HPP
#define SNETSAC_SNET_TOPOLOGY_HPP

/// \file topology.hpp
/// The entity graph of a running Network: how a Net unfolds into entities
/// and what every entity is called. `Topology` owns the entities (and the
/// registry lock, rank 5, that replicas instantiated on demand take);
/// the free functions below are the static views of the same unfolding,
/// computed through the same naming helpers, so `snetlint`, stats rows and
/// trace reports all name one node the same way.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/annotations.hpp"
#include "snet/entity.hpp"
#include "snet/net.hpp"

namespace snet {

class Network;
struct NetworkStats;

/// Linear-segment fusion plan of a serial chain: the leaves of \p serial
/// (nested serials flattened), in order, cut into the segments
/// Topology::instantiate builds. A maximal run of box/filter leaves splits
/// into segments holding at most one box (`f b f b f` → `[f b f][b f]`);
/// every other leaf is a segment of its own. Every stage after a segment's
/// first is an inline stage of it: it runs inside the first's quanta, so
/// a filter never costs an entity hop, while box→box edges and the edges
/// into a synchrocell or det bracket keep their inbox (routers have none
/// to keep, see Router).
std::vector<std::vector<Net>> serial_segments(const Net& serial);

/// The fused segments (two or more stages) of \p topology, each as the
/// entity names instantiate gives its stages, head first, computed with
/// serial_segments. Names follow the default instantiation; stages inside
/// replicas created on demand carry `*` where the runtime puts the star
/// stage number or the split tag value.
std::vector<std::vector<std::string>> fused_segments(const Net& topology);

/// One router of a topology and the entities that resolve it in their own
/// thread (see Router): `input` for the client's inject and the input
/// dispatcher, a router for the one it picks next, and otherwise the
/// entities whose output feeds it.
struct RoutedEdge {
  std::string router;
  std::vector<std::string> producers;
};

/// The routers of \p topology with their producers, named as
/// Topology::instantiate names them (through the same naming functions,
/// serial_segments and parallel_branches); `*` stands for a star stage
/// number or a split tag value. Every parallel, star and split has a
/// router; a det one is fed by its bracket's entry and exits through its
/// collector.
std::vector<RoutedEdge> routed_edges(const Net& topology);

class Topology {
 public:
  explicit Topology(Network& net);

  /// Registers an entity; returns a stable raw pointer owned by the
  /// topology.
  Entity* adopt(std::unique_ptr<Entity> entity);
  /// Instantiates a (sub)topology whose output feeds \p successor; returns
  /// the entry entity. Thread-safe (star/split call this while running).
  Entity* instantiate(const Net& node, Entity* successor, const std::string& prefix);
  /// Pokes every synchrocell so slots stored by dead (errored/released)
  /// sessions are evicted (see SyncEntity::on_poke).
  void poke_sync_cells();
  /// One EntityStats row per entity, in adoption order.
  void stats(NetworkStats& out) const;
  /// The inbox lost-wakeup law: no producer stays parked on an inbox that
  /// has drained below its release watermark. Safe points only.
  void check() const;

 private:
  /// Instantiates a parallel, star or split whose router
  /// `build(merge_target)` creates. A det combinator is bracketed: the
  /// collector `<prefix>/<kind>-coll` (feeding \p successor; kind is par,
  /// star or split) is the merge target, and the entry
  /// `<prefix>/<kind>-entry`, which forwards to the router, becomes the
  /// combinator's entry.
  Entity* instantiate_bracketed(const Net& node, Entity* successor,
                                const std::string& prefix,
                                const std::function<Entity*(Entity*)>& build);

  Network& net_;
  mutable snetsac::runtime::Mutex reg_mu_;
  std::vector<std::unique_ptr<Entity>> entities_ SNETSAC_GUARDED_BY(reg_mu_);
  /// Synchrocell instances: failing or releasing a session pokes them so
  /// slots stored by the dead session are evicted instead of holding its
  /// liveness forever.
  std::vector<Entity*> sync_cells_ SNETSAC_GUARDED_BY(reg_mu_);
};

}  // namespace snet

#endif
