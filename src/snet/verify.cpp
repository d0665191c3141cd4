#include "snet/verify.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "snet/check.hpp"
#include "snet/router.hpp"

namespace snet {

const char* to_string(LintCode code) {
  switch (code) {
    case LintCode::UnroutableRecord:
      return "unroutable-record";
    case LintCode::DeadBranch:
      return "dead-branch";
    case LintCode::NeverFiringSync:
      return "never-firing-sync";
    case LintCode::StarNoProgress:
      return "star-no-progress";
    case LintCode::ConfigDetCapacity:
      return "config-det-capacity";
    case LintCode::ConfigDetUnused:
      return "config-det-unused";
    case LintCode::ConfigOutputCredit:
      return "config-output-credit";
    case LintCode::ConfigInboxCapacity:
      return "config-inbox-capacity";
  }
  return "unknown";
}

const char* to_string(LintSeverity severity) {
  return severity == LintSeverity::Error ? "error" : "warning";
}

std::string LintDiagnostic::to_string() const {
  std::string out = snet::to_string(severity);
  out += " [";
  out += snet::to_string(code);
  out += "] ";
  out += path;
  out += ": ";
  out += message;
  return out;
}

bool VerifyReport::has_errors() const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [](const LintDiagnostic& d) {
                       return d.severity == LintSeverity::Error;
                     });
}

std::size_t VerifyReport::count(LintCode code) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const LintDiagnostic& d) { return d.code == code; }));
}

const LintDiagnostic* VerifyReport::first_type_error() const {
  const auto it = std::find_if(
      diagnostics.begin(), diagnostics.end(), [](const LintDiagnostic& d) {
        return d.code == LintCode::UnroutableRecord ||
               d.code == LintCode::StarNoProgress;
      });
  return it == diagnostics.end() ? nullptr : &*it;
}

std::string VerifyReport::to_string() const {
  std::string out;
  for (const auto& d : diagnostics) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

namespace {

void add_unique(std::vector<RecordType>& vs, const RecordType& v) {
  if (std::find(vs.begin(), vs.end(), v) == vs.end()) {
    vs.push_back(v);
  }
}

/// True when a record of (lower-bound) type \p produced is accepted by a
/// network with input multitype \p input: some input variant's labels are
/// all guaranteed present.
bool accepts_variant(const MultiType& input, const RecordType& produced) {
  return std::any_of(input.variants().begin(), input.variants().end(),
                     [&](const RecordType& w) { return w.included_in(produced); });
}

/// Per-run analysis state. Post-pass bookkeeping is keyed by tree-position
/// path (a subtree Net may be shared between two positions; paths are
/// unique per position and match the entity names `Topology::instantiate`
/// would mint).
struct Ctx {
  std::vector<LintDiagnostic> diags;

  struct ParallelState {
    Net node;
    std::vector<Net> branch_nodes;
    std::vector<std::string> branch_paths;
    std::vector<bool> hit;  // branch ever in the argmax set
  };
  struct SyncState {
    Net node;
    std::vector<bool> fillable;  // per pattern slot
  };
  struct StarState {
    Net node;
    bool exit_reached = false;
  };

  std::map<std::string, ParallelState> parallels;
  std::map<std::string, SyncState> syncs;
  std::map<std::string, StarState> stars;
  // First-visit order, so post-pass diagnostics come out in topology order
  // rather than std::map order.
  std::vector<std::string> parallel_order;
  std::vector<std::string> sync_order;
  std::vector<std::string> star_order;

  /// Emits once per (code, path, type): the star closure revisits interior
  /// components, and one defect should read as one diagnostic.
  void diag(LintCode code, LintSeverity severity, std::string path,
            std::string type, std::string message) {
    for (const auto& d : diags) {
      if (d.code == code && d.path == path && d.type == type) {
        return;
      }
    }
    diags.push_back(LintDiagnostic{code, severity, std::move(path),
                                   std::move(type), std::move(message)});
  }
};

/// Forward shape flow — the one shape-flow interpreter (check.cpp's
/// `propagate` is this walk, throwing on its first type error).
/// Unhandleable variants become diagnostics and are dropped from the flow
/// instead of aborting the walk, so one pass reports every defect. Returns
/// the (lower-bound) output type set.
MultiType flow(const Net& n, const MultiType& incoming, const std::string& path,
               Ctx& ctx) {
  if (incoming.empty()) {
    return {};
  }
  switch (n->kind) {
    case NetNode::Kind::Box: {
      const RecordType consumed = n->sig.input.type();
      std::vector<RecordType> out;
      for (const auto& v : incoming.variants()) {
        if (!consumed.included_in(v)) {
          ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error,
                   path + "/box:" + n->name, v.to_string(),
                   "box " + n->name + " with input type " + consumed.to_string() +
                       " cannot accept records of type " + v.to_string());
          continue;
        }
        const RecordType excess = v.minus(consumed);
        for (const auto& o : n->sig.outputs) {
          add_unique(out, o.type().union_with(excess));
        }
      }
      return MultiType(std::move(out));
    }
    case NetNode::Kind::Filter: {
      const RecordType& pat = n->filter->pattern().type;
      std::vector<RecordType> out;
      for (const auto& v : incoming.variants()) {
        if (!pat.included_in(v)) {
          ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error,
                   path + "/filter", v.to_string(),
                   "filter " + n->filter->to_string() +
                       " cannot accept records of type " + v.to_string());
          continue;
        }
        const RecordType excess = v.minus(pat);
        const MultiType declared = n->filter->output_type();
        for (const auto& ov : declared.variants()) {
          add_unique(out, ov.union_with(excess));
        }
      }
      return MultiType(std::move(out));
    }
    case NetNode::Kind::Serial:
      return flow(n->right, flow(n->left, incoming, path, ctx), path, ctx);
    case NetNode::Kind::Parallel: {
      // The flattened branch list `Topology::instantiate` builds.
      const std::vector<ParallelBranch> branches = parallel_branches(n, path);
      const std::string dpath = path + "/par";
      auto [it, fresh] = ctx.parallels.try_emplace(dpath);
      Ctx::ParallelState& st = it->second;
      if (fresh) {
        st.node = n;
        st.hit.assign(branches.size(), false);
        for (const ParallelBranch& b : branches) {
          st.branch_nodes.push_back(b.net);
          st.branch_paths.push_back(b.path);
        }
        ctx.parallel_order.push_back(dpath);
      }
      std::vector<MultiType> inputs;
      inputs.reserve(branches.size());
      for (const ParallelBranch& b : branches) {
        inputs.push_back(required_input(b.net));
      }
      std::vector<std::vector<RecordType>> to(branches.size());
      for (const auto& v : incoming.variants()) {
        // The runtime router's own argmax collection over the same
        // flattened branch inputs: static verdict == dynamic tied set for
        // records of exactly this type, by construction.
        const std::vector<std::uint32_t> tied =
            detail::ParallelRouter::tied_for(inputs, v);
        if (tied.empty()) {
          ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, dpath,
                   v.to_string(),
                   "parallel combinator `" + describe(n) + "`: records of type " +
                       v.to_string() + " match no branch");
          continue;
        }
        for (const std::uint32_t b : tied) {
          st.hit[b] = true;
          add_unique(to[b], v);
        }
      }
      MultiType out;
      for (std::size_t b = 0; b < branches.size(); ++b) {
        if (!to[b].empty()) {
          out = out.union_with(flow(branches[b].net, MultiType(std::move(to[b])),
                                    branches[b].path, ctx));
        }
      }
      return out;
    }
    case NetNode::Kind::Star: {
      const std::string spath = path + "/star";
      auto [it, fresh] = ctx.stars.try_emplace(spath);
      Ctx::StarState& st = it->second;
      if (fresh) {
        st.node = n;
        ctx.star_order.push_back(spath);
      }
      // Closure over the unfolding: a variant either taps out at the exit
      // pattern (definitely, when there is no guard; possibly, when a
      // guard is present) or re-enters the replica; replica outputs join
      // the frontier until no new variant appears. All unfolded stages
      // share one static position — "star/rep*".
      std::vector<RecordType> exits;
      std::vector<RecordType> seen;
      std::vector<RecordType> frontier = incoming.variants();
      const MultiType child_in = required_input(n->child);
      while (!frontier.empty()) {
        std::vector<RecordType> to_child;
        for (const auto& v : frontier) {
          if (std::find(seen.begin(), seen.end(), v) != seen.end()) {
            continue;
          }
          seen.push_back(v);
          const bool may_exit = n->exit.type.included_in(v);
          const bool must_exit = may_exit && !n->exit.guard.has_value();
          if (may_exit) {
            add_unique(exits, v);
            st.exit_reached = true;
          }
          if (!must_exit) {
            if (!accepts_variant(child_in, v)) {
              ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, spath,
                       v.to_string(),
                       "serial replication `" + describe(n) +
                           "`: records of type " + v.to_string() +
                           " neither (unconditionally) match exit pattern " +
                           n->exit.to_string() +
                           " nor re-enter the replica (input type " +
                           child_in.to_string() + ")");
              continue;
            }
            add_unique(to_child, v);
          }
        }
        frontier.clear();
        if (!to_child.empty()) {
          frontier = flow(n->child, MultiType(std::move(to_child)),
                          spath + "/rep*", ctx)
                         .variants();
        }
      }
      return MultiType(std::move(exits));
    }
    case NetNode::Kind::Split: {
      const std::string dpath = path + "/split";
      std::vector<RecordType> ok;
      for (const auto& v : incoming.variants()) {
        if (!v.contains(n->split_tag)) {
          ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, dpath,
                   v.to_string(),
                   "parallel replication `" + describe(n) +
                       "`: records of type " + v.to_string() +
                       " lack the replication tag " +
                       label_display(n->split_tag));
          continue;
        }
        ok.push_back(v);
      }
      // Every tag value shares one replica topology; "split[*]" stands for
      // the demand-unfolded "split[value]" family.
      return flow(n->child, MultiType(std::move(ok)), dpath + "[*]", ctx);
    }
    case NetNode::Kind::Sync: {
      const std::string cpath = path + "/sync";
      auto [it, fresh] = ctx.syncs.try_emplace(cpath);
      Ctx::SyncState& st = it->second;
      if (fresh) {
        st.node = n;
        st.fillable.assign(n->sync_patterns.size(), false);
        ctx.sync_order.push_back(cpath);
      }
      RecordType merged;
      for (std::size_t i = 0; i < n->sync_patterns.size(); ++i) {
        const Pattern& p = n->sync_patterns[i];
        merged = merged.union_with(p.type);
        for (const auto& v : incoming.variants()) {
          if (p.type.included_in(v)) {
            st.fillable[i] = true;
          }
        }
      }
      // Pass-through variants plus the merged record (lower bound: the
      // union of all pattern labels with any triggering variant).
      std::vector<RecordType> out;
      for (const auto& v : incoming.variants()) {
        add_unique(out, v);
      }
      for (const auto& v : incoming.variants()) {
        add_unique(out, merged.union_with(v));
      }
      return MultiType(std::move(out));
    }
  }
  ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, path, "",
           "corrupt network node");
  return {};
}

// ------------------------------------------------------------ config lint

/// Structural walk visiting every node with its instantiate-style path
/// (types not needed — config lints are about the topology's shape).
template <class Fn>
void walk_topology(const Net& n, const std::string& path, Fn&& fn) {
  fn(n, path);
  switch (n->kind) {
    case NetNode::Kind::Box:
    case NetNode::Kind::Filter:
    case NetNode::Kind::Sync:
      return;
    case NetNode::Kind::Serial:
      walk_topology(n->left, path, fn);
      walk_topology(n->right, path, fn);
      return;
    case NetNode::Kind::Parallel:
      for (const ParallelBranch& b : parallel_branches(n, path)) {
        walk_topology(b.net, b.path, fn);
      }
      return;
    case NetNode::Kind::Star:
      walk_topology(n->child, path + "/star/rep*", fn);
      return;
    case NetNode::Kind::Split:
      walk_topology(n->child, path + "/split[*]", fn);
      return;
  }
}

/// The number of records one injected record is *guaranteed* to produce —
/// the sound lower bound on fan-out. Boxes are opaque functions (may emit
/// nothing: 0); a filter always emits exactly one record per output
/// specifier; a star's record may tap out immediately; a sync may store.
/// Saturated to keep serial products from overflowing.
std::size_t min_fanout(const Net& n) {
  constexpr std::size_t kCap = 1u << 20;
  switch (n->kind) {
    case NetNode::Kind::Box:
      return 0;
    case NetNode::Kind::Filter:
      return n->filter->outputs().size();
    case NetNode::Kind::Serial: {
      const std::size_t l = min_fanout(n->left);
      const std::size_t r = min_fanout(n->right);
      if (l == 0 || r == 0) {
        return 0;
      }
      return l > kCap / r ? kCap : l * r;
    }
    case NetNode::Kind::Parallel:
      return std::min(min_fanout(n->left), min_fanout(n->right));
    case NetNode::Kind::Star:
      return min_fanout(n->child) == 0 ? 0 : 1;
    case NetNode::Kind::Split:
      return min_fanout(n->child);
    case NetNode::Kind::Sync:
      return 0;
  }
  return 0;
}

void config_lint(const Net& net, const VerifyOptions& opts, Ctx& ctx) {
  bool has_det = false;
  bool has_sync = false;
  walk_topology(net, "net", [&](const Net& n, const std::string& path) {
    switch (n->kind) {
      case NetNode::Kind::Parallel:
      case NetNode::Kind::Star:
      case NetNode::Kind::Split:
        has_det = has_det || n->det;
        break;
      case NetNode::Kind::Sync: {
        has_sync = true;
        // A synchrocell must hold (slots - 1) records in its interior
        // before the completing record can ever fire the merge. A det/sync
        // cap below that is a statically-guaranteed wedge: FailFast errors
        // the session before the first merge, Spill throttles it forever.
        const std::size_t prefill = n->sync_patterns.size() - 1;
        if (opts.det_capacity > 0 && prefill > opts.det_capacity) {
          ctx.diag(
              LintCode::ConfigDetCapacity,
              opts.det_fail_fast ? LintSeverity::Error : LintSeverity::Warning,
              path + "/sync", std::to_string(opts.det_capacity),
              "det_capacity=" + std::to_string(opts.det_capacity) +
                  " is below the " + std::to_string(prefill) +
                  " records this synchrocell must buffer before it can fire: " +
                  (opts.det_fail_fast
                       ? "every session hits SessionOverflowError (FailFast) "
                         "before the first merge"
                       : "every session is spill-throttled before the first "
                         "merge"));
        }
        break;
      }
      case NetNode::Kind::Filter: {
        // One input record bursts outputs().size() records into the next
        // inbox in one emission; a bound below the burst parks the filter
        // inside every single quantum — lockstep throughput, the
        // backpressure machinery degenerates into a handbrake.
        const std::size_t burst = n->filter->outputs().size();
        if (opts.inbox_capacity > 0 && burst > opts.inbox_capacity) {
          ctx.diag(LintCode::ConfigInboxCapacity, LintSeverity::Warning,
                   path + "/filter", std::to_string(opts.inbox_capacity),
                   "inbox_capacity=" + std::to_string(opts.inbox_capacity) +
                       " is below this filter's " + std::to_string(burst) +
                       "-record single-input burst: the producer stalls on "
                       "every record it processes");
        }
        break;
      }
      default:
        break;
    }
  });
  if (opts.det_capacity > 0 && !has_det && !has_sync) {
    ctx.diag(LintCode::ConfigDetUnused, LintSeverity::Warning, "net",
             std::to_string(opts.det_capacity),
             "det_capacity=" + std::to_string(opts.det_capacity) +
                 " configured, but the topology has no deterministic "
                 "combinator or synchrocell to charge it against");
  }
  const std::size_t fanout = min_fanout(net);
  if (opts.output_capacity > 0 && fanout > opts.output_capacity) {
    ctx.diag(LintCode::ConfigOutputCredit, LintSeverity::Warning, "net",
             std::to_string(opts.output_capacity),
             "output_capacity=" + std::to_string(opts.output_capacity) +
                 " is below the " + std::to_string(fanout) +
                 " outputs one injected record is guaranteed to produce: a "
                 "session that injects before collecting wedges on its own "
                 "output credit");
  }
}

}  // namespace

VerifyReport verify(const Net& net, const VerifyOptions& opts) {
  if (!net) {
    throw std::invalid_argument("verify: null topology");
  }
  Ctx ctx;
  MultiType output;
  try {
    const MultiType seed = opts.seed.empty() ? required_input(net) : opts.seed;
    output = flow(net, seed, "net", ctx);
  } catch (const TypeCheckError& e) {
    // required_input only throws on corrupt/null subnodes — surface it
    // rather than aborting the lint run.
    ctx.diag(LintCode::UnroutableRecord, LintSeverity::Error, "net", "",
             e.what());
  }

  // Post-pass: liveness verdicts need the whole reachable set.
  for (const auto& dpath : ctx.parallel_order) {
    const Ctx::ParallelState& st = ctx.parallels.at(dpath);
    for (std::size_t b = 0; b < st.hit.size(); ++b) {
      if (!st.hit[b]) {
        ctx.diag(LintCode::DeadBranch, LintSeverity::Warning,
                 st.branch_paths[b], describe(st.branch_nodes[b]),
                 "parallel combinator `" + describe(st.node) + "`: branch `" +
                     describe(st.branch_nodes[b]) +
                     "` is never the best-match winner for any reachable "
                     "record type (records may still arrive if clients "
                     "inject wider types than the declared signature)");
      }
    }
  }
  for (const auto& spath : ctx.star_order) {
    const Ctx::StarState& st = ctx.stars.at(spath);
    if (!st.exit_reached) {
      ctx.diag(LintCode::StarNoProgress, LintSeverity::Error, spath,
               st.node->exit.to_string(),
               "serial replication: no reachable record type can ever match "
               "the exit pattern " + st.node->exit.to_string() +
                   " — records circulate in the replica chain without "
                   "progress");
    }
  }
  for (const auto& cpath : ctx.sync_order) {
    const Ctx::SyncState& st = ctx.syncs.at(cpath);
    for (std::size_t i = 0; i < st.fillable.size(); ++i) {
      if (!st.fillable[i]) {
        const Pattern& p = st.node->sync_patterns[i];
        ctx.diag(LintCode::NeverFiringSync, LintSeverity::Warning, cpath,
                 p.to_string(),
                 "synchrocell: no reachable record type fills pattern slot " +
                     p.to_string() +
                     " — the cell can never fire, and records matching its "
                     "other slots are stored forever");
      }
    }
  }

  config_lint(net, opts, ctx);
  return VerifyReport{std::move(ctx.diags), std::move(output)};
}

}  // namespace snet
