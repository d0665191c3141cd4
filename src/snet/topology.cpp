#include "snet/topology.hpp"

#include <algorithm>

#include "runtime/invariants.hpp"
#include "snet/entities.hpp"
#include "snet/network.hpp"

namespace snet {

using snetsac::runtime::MutexLock;

namespace {

bool is_stage(const Net& n) {
  return n->kind == NetNode::Kind::Box || n->kind == NetNode::Kind::Filter;
}

void serial_leaves(const Net& n, std::vector<Net>& out) {
  if (n->kind == NetNode::Kind::Serial) {
    serial_leaves(n->left, out);
    serial_leaves(n->right, out);
  } else {
    out.push_back(n);
  }
}

/// The entity name instantiate gives a box or filter under \p prefix.
std::string stage_name(const Net& n, const std::string& prefix) {
  return n->kind == NetNode::Kind::Box ? prefix + "/box:" + n->name
                                       : prefix + "/filter";
}

/// The path instantiate builds parallel, star or split \p n at under
/// \p prefix: the name of a parallel's or split's router, the stem of a
/// star's stage routers (`/stage<n>`) and replicas (`/rep<n>`), and of a
/// det bracket's `-entry` and `-coll`.
std::string combinator_path(const Net& n, const std::string& prefix) {
  switch (n->kind) {
    case NetNode::Kind::Parallel:
      return prefix + "/par";
    case NetNode::Kind::Star:
      return prefix + "/star";
    default:
      return prefix + "/split";
  }
}

/// Adds \p producers to \p router's row of \p out, keeping first-seen
/// order on both levels.
void add_producers(std::vector<RoutedEdge>& out, const std::string& router,
                   const std::vector<std::string>& producers) {
  auto row = std::find_if(out.begin(), out.end(),
                          [&](const RoutedEdge& e) { return e.router == router; });
  if (row == out.end()) {
    out.push_back(RoutedEdge{router, {}});
    row = out.end() - 1;
  }
  for (const std::string& p : producers) {
    if (std::find(row->producers.begin(), row->producers.end(), p) ==
        row->producers.end()) {
      row->producers.push_back(p);
    }
  }
}

/// The static views of a topology: its routers with their producers, and
/// its fused segments.
struct Views {
  std::vector<RoutedEdge> routed;
  std::vector<std::vector<std::string>> fused;
};

/// Walks \p n as instantiate builds it under \p prefix, fed by the
/// entities \p producers: records every router's producers and every
/// fused segment in \p out and returns the entities that emit \p n's
/// output. A router passes its records on, so it is the producer of
/// whatever it resolves to next.
std::vector<std::string> collect(const Net& n, const std::string& prefix,
                                 std::vector<std::string> producers, Views& out) {
  switch (n->kind) {
    case NetNode::Kind::Box:
    case NetNode::Kind::Filter:
      return {stage_name(n, prefix)};
    case NetNode::Kind::Sync:
      return {prefix + "/sync"};
    case NetNode::Kind::Serial:
      for (const std::vector<Net>& segment : serial_segments(n)) {
        if (segment.size() == 1) {
          producers = collect(segment.front(), prefix, std::move(producers), out);
          continue;
        }
        std::vector<std::string>& names = out.fused.emplace_back();
        for (const Net& stage : segment) {
          names.push_back(stage_name(stage, prefix));
        }
        producers = {names.back()};
      }
      return producers;
    case NetNode::Kind::Parallel:
    case NetNode::Kind::Star:
    case NetNode::Kind::Split:
      break;
  }
  const std::string path = combinator_path(n, prefix);
  if (n->det) {
    producers = {path + "-entry"};
  }
  std::vector<std::string> exits;
  if (n->kind == NetNode::Kind::Parallel) {
    add_producers(out.routed, path, producers);
    for (const ParallelBranch& b : parallel_branches(n, prefix)) {
      for (std::string& e : collect(b.net, b.path, {path}, out)) {
        exits.push_back(std::move(e));
      }
    }
  } else if (n->kind == NetNode::Kind::Star) {
    // Every stage is one router: fed by the star's producers (stage 0) and
    // by the previous stage's replica; it is also what the star exits from.
    const std::string stage = path + "/stage*";
    add_producers(out.routed, stage, producers);
    add_producers(out.routed, stage, collect(n->child, path + "/rep*", {stage}, out));
    exits = {stage};
  } else {
    add_producers(out.routed, path, producers);
    exits = collect(n->child, path + "[*]", {path}, out);
  }
  return n->det ? std::vector<std::string>{path + "-coll"} : exits;
}

}  // namespace

std::vector<std::vector<Net>> serial_segments(const Net& serial) {
  std::vector<Net> leaves;
  serial_leaves(serial, leaves);
  std::vector<std::vector<Net>> segments;
  bool open = false;     // the last segment is a box/filter run
  bool has_box = false;  // ... and already holds its box
  for (Net& leaf : leaves) {
    const bool box = leaf->kind == NetNode::Kind::Box;
    // A second box starts a new segment: box→box keeps its hop, so compute
    // stages stay pipelined across workers.
    if (!open || !is_stage(leaf) || (box && has_box)) {
      segments.emplace_back();
      has_box = false;
    }
    open = is_stage(leaf);
    has_box = has_box || box;
    segments.back().push_back(std::move(leaf));
  }
  return segments;
}

std::vector<std::vector<std::string>> fused_segments(const Net& topology) {
  Views out;
  collect(topology, "net", {"input"}, out);
  return std::move(out.fused);
}

std::vector<RoutedEdge> routed_edges(const Net& topology) {
  Views out;
  collect(topology, "net", {"input"}, out);
  return std::move(out.routed);
}

Topology::Topology(Network& net) : net_(net) {
  // Lowest rank of the network's locks (see Network's constructor): a
  // replica instantiated on demand takes it under a router's unfold lock.
  reg_mu_.set_order(5, "network.reg_mu");
}

Entity* Topology::adopt(std::unique_ptr<Entity> entity) {
  const MutexLock lock(reg_mu_);
  entities_.push_back(std::move(entity));
  return entities_.back().get();
}

void Topology::poke_sync_cells() {
  const MutexLock lock(reg_mu_);  // a poke only takes higher-ranked locks
  for (Entity* cell : sync_cells_) {
    cell->poke();
  }
}

void Topology::stats(NetworkStats& out) const {
  const MutexLock lock(reg_mu_);
  out.entities.reserve(entities_.size());
  for (const auto& e : entities_) {
    out.entities.push_back(
        EntityStats{e->name(), e->records_in(), e->records_out(), e->fused()});
  }
}

void Topology::check() const {
  // A producer parked on a consumer's inbox that has drained below the
  // watermark will never be poked again. (The inbox locks rank above the
  // registry's.)
  const MutexLock lock(reg_mu_);
  for (const auto& e : entities_) {
    if (e->inbox_lost_wakeup_suspected()) {
      snetsac::runtime::invariant_failure(
          "no lost wakeup on inbox credit",
          "entity " + e->name() + ": producer(s) parked below the release watermark");
    }
  }
}

Entity* Topology::instantiate(const Net& node, Entity* successor,
                              const std::string& prefix) {
  using detail::BoxEntity;
  using detail::FilterEntity;
  using detail::ParallelEntity;
  using detail::SplitEntity;
  using detail::StarStageEntity;
  using detail::SyncEntity;

  switch (node->kind) {
    case NetNode::Kind::Box:
      return adopt(std::make_unique<BoxEntity>(net_, stage_name(node, prefix),
                                               node, successor));
    case NetNode::Kind::Filter:
      return adopt(std::make_unique<FilterEntity>(net_, stage_name(node, prefix),
                                                  node, successor));
    case NetNode::Kind::Serial: {
      // Linear-segment fusion: instantiated right to left, each segment's
      // stages after the first become inline stages of its first — their
      // only producer is their left neighbour, by construction.
      Entity* next = successor;
      const std::vector<std::vector<Net>> segments = serial_segments(node);
      std::vector<Entity*> stages;
      for (auto seg = segments.rbegin(); seg != segments.rend(); ++seg) {
        stages.clear();
        for (auto leaf = seg->rbegin(); leaf != seg->rend(); ++leaf) {
          next = instantiate(*leaf, next, prefix);
          stages.push_back(next);
        }
        stages.pop_back();  // the head keeps its inbox
        // Under the registry lock: stats() reads fused() under it, while a
        // split or star may be instantiating this replica mid-run.
        const MutexLock lock(reg_mu_);
        for (Entity* stage : stages) {
          stage->fuse_into(*next);
        }
      }
      return next;
    }
    case NetNode::Kind::Parallel:
      return instantiate_bracketed(node, successor, prefix, [&](Entity* merge_target) {
        // Nested non-deterministic parallels flatten into one N-ary
        // router (see parallel_branches), so `A | B | C` costs one routing
        // decision instead of a chain of binary ones.
        // Det parallels keep their own entry/collector bracket and are
        // instantiated as opaque branches.
        const std::vector<ParallelBranch> leaves = parallel_branches(node, prefix);
        std::vector<ParallelEntity::Branch> branches;
        branches.reserve(leaves.size());
        for (const ParallelBranch& b : leaves) {
          branches.push_back(ParallelEntity::Branch{
              required_input(b.net), instantiate(b.net, merge_target, b.path)});
        }
        return adopt(std::make_unique<ParallelEntity>(net_, combinator_path(node, prefix),
                                                      std::move(branches)));
      });
    case NetNode::Kind::Star:
      return instantiate_bracketed(node, successor, prefix, [&](Entity* exit_target) {
        return adopt(std::make_unique<StarStageEntity>(net_, combinator_path(node, prefix),
                                                       node, exit_target, 0));
      });
    case NetNode::Kind::Split:
      return instantiate_bracketed(node, successor, prefix, [&](Entity* merge_target) {
        return adopt(std::make_unique<SplitEntity>(net_, combinator_path(node, prefix),
                                                   node, merge_target));
      });
    case NetNode::Kind::Sync: {
      Entity* cell = adopt(
          std::make_unique<SyncEntity>(net_, prefix + "/sync", node, successor));
      const MutexLock lock(reg_mu_);
      sync_cells_.push_back(cell);
      return cell;
    }
  }
  throw std::logic_error("corrupt topology node");
}

Entity* Topology::instantiate_bracketed(const Net& node, Entity* successor,
                                        const std::string& prefix,
                                        const std::function<Entity*(Entity*)>& build) {
  using detail::DetCollectorEntity;
  using detail::DetEntryEntity;
  if (!node->det) {
    return build(successor);
  }
  const std::string bracket = combinator_path(node, prefix);
  auto* coll = static_cast<DetCollectorEntity*>(
      adopt(std::make_unique<DetCollectorEntity>(net_, bracket + "-coll", successor)));
  auto* entry = static_cast<DetEntryEntity*>(
      adopt(std::make_unique<DetEntryEntity>(net_, bracket + "-entry", coll->scope())));
  entry->set_target(build(coll));
  return entry;
}

}  // namespace snet
