#ifndef SNETSAC_SNET_NET_HPP
#define SNETSAC_SNET_NET_HPP

/// \file net.hpp
/// Network topologies as immutable expression trees. "We use algebraic
/// formulae to define connectivity in streaming networks" (paper, §4):
/// every network, however complex, is a single-input single-output (SISO)
/// component built from boxes and filters with four combinators —
/// serial `A..B`, parallel `A||B`, serial replication `A**pat`, parallel
/// replication `A!!<tag>` — each with a deterministic variant (`|`, `*`,
/// `!`; serial composition needs none).
///
/// A `Net` value is only a description; `Network` (network.hpp)
/// instantiates it into running entities.

#include <memory>
#include <string>
#include <vector>

#include "snet/box.hpp"
#include "snet/filter.hpp"
#include "snet/pattern.hpp"
#include "snet/signature.hpp"

namespace snet {

struct NetNode;
using Net = std::shared_ptr<const NetNode>;

struct NetNode {
  enum class Kind { Box, Filter, Serial, Parallel, Star, Split, Sync };

  Kind kind;

  // Box
  std::string name;
  Signature sig;
  BoxFn fn;

  // Filter
  std::shared_ptr<const FilterSpec> filter;

  // Serial / Parallel
  Net left;
  Net right;

  // Star / Split
  Net child;
  Pattern exit;      // Star: the tap pattern "before every replica"
  Label split_tag{}; // Split: the routing tag

  // Parallel / Star / Split: deterministic variant?
  bool det = false;

  // Sync (extension beyond this paper; core S-Net synchrocell)
  std::vector<Pattern> sync_patterns;
};

/// A box with signature given in S-Net notation, e.g.
/// `box("solveOneLevel", "(board, opts) -> (board, opts) | (board, <done>)", fn)`.
Net box(std::string name, const std::string& signature, BoxFn fn);
Net box(std::string name, Signature sig, BoxFn fn);

/// A filter in the paper's notation, e.g. `filter("{<k>} -> {<k>=<k>%4}")`.
Net filter(const std::string& spec);
Net filter(FilterSpec spec);

/// Serial composition `A..B` (also via `a >> b`).
Net serial(Net a, Net b);

/// Parallel composition: `parallel` is the non-deterministic `A||B`,
/// `parallel_det` the deterministic `A|B`.
Net parallel(Net a, Net b);
Net parallel_det(Net a, Net b);

/// Serial replication `A**pattern` (non-deterministic) / `A*pattern`.
Net star(Net a, const std::string& exit_pattern);
Net star(Net a, Pattern exit);
Net star_det(Net a, const std::string& exit_pattern);
Net star_det(Net a, Pattern exit);

/// Parallel replication `A!!<tag>` / deterministic `A!<tag>`.
Net split(Net a, const std::string& tag);
Net split_det(Net a, const std::string& tag);

/// Synchrocell `[| pattern, pattern, ... |]` — joins one record per
/// pattern into a single record, then becomes the identity.
Net sync(std::initializer_list<std::string> patterns);
Net sync_patterns(std::vector<Pattern> patterns);

/// `a >> b` reads as the paper's `a .. b`.
inline Net operator>>(Net a, Net b) { return serial(std::move(a), std::move(b)); }
/// `a | b` is the paper's *non-deterministic* `a || b` (C++ has no `||`
/// overload candidate that short-circuits sensibly here; use parallel_det
/// for the deterministic version).
inline Net operator|(Net a, Net b) { return parallel(std::move(a), std::move(b)); }

/// Structural pretty-printer in the paper's algebraic notation.
std::string describe(const Net& net);

/// One branch of a flattened parallel combinator, with its combinator path.
struct ParallelBranch {
  Net net;
  std::string path;
};

/// The branches one N-ary dispatcher routes between for parallel node
/// \p par at path \p prefix: nested non-deterministic parallels merge into
/// the dispatcher, each leaf keeping its chain of "/parL" and "/parR"
/// steps; deterministic parallels below the top stay opaque branches.
/// Best-match over the merged branches picks the same winners as the
/// binary cascade (a combined branch's score is the max over its variants
/// and argmax is associative). `Topology::instantiate`, `fused_segments`
/// and `verify` all walk parallels through this one function.
std::vector<ParallelBranch> parallel_branches(const Net& par,
                                              const std::string& prefix);

}  // namespace snet

#endif
