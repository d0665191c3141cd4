#ifndef SNETSAC_SNET_CHECK_HPP
#define SNETSAC_SNET_CHECK_HPP

/// \file check.hpp
/// Static signature inference over network topologies. "Each network is
/// associated with a type signature. However, unlike box signatures they
/// are inferred by the compiler." (paper, §4).
///
/// Inference runs in two phases:
///
///  1. `required_input` — bottom-up: the label sets a network needs on
///     incoming records (used both for checking and for best-match routing
///     at parallel combinators).
///  2. `propagate` — forward: starting from the network's own input
///     variants, compute the (lower-bound) types of records each component
///     can produce, *including flow inheritance* — excess labels of an
///     input record re-appear on outputs. This is what makes the paper's
///     Fig. 2 filter `[{} -> {<k>=1}]` check out against a downstream
///     `!!<k>` even though `board`/`opts` "do not occur in the filter".
///
/// Phase 2 is a projection of the shape-flow verifier (verify.hpp), not a
/// second interpreter: `propagate` runs `verify` seeded with the incoming
/// variants, raises TypeCheckError with the message of its first type
/// error (an unroutable record or a star that can never exit), and
/// otherwise returns the verifier's reachable output set. Output types are
/// lower bounds: by record subtyping, actual records may always carry
/// additional labels.

#include <stdexcept>
#include <string>

#include "snet/net.hpp"
#include "snet/rtypes.hpp"

namespace snet {

class TypeCheckError : public std::runtime_error {
 public:
  explicit TypeCheckError(const std::string& what) : std::runtime_error(what) {}
};

struct NetSignature {
  MultiType input;
  MultiType output;

  std::string to_string() const {
    return input.to_string() + " -> " + output.to_string();
  }
};

/// Infers the full signature of \p net (phase 1 + phase 2), checking
/// combinator compatibility. Throws TypeCheckError with the offending
/// subexpression.
NetSignature infer(const Net& net);

/// Phase 1 only: the input variants \p net accepts.
MultiType required_input(const Net& net);

/// Phase 2 only: output variants produced when \p incoming variants are
/// fed in, each listed once (none for an empty \p incoming). Throws
/// TypeCheckError when a variant cannot be handled.
MultiType propagate(const Net& net, const MultiType& incoming);

}  // namespace snet

#endif
