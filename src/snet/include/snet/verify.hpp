#ifndef SNETSAC_SNET_VERIFY_HPP
#define SNETSAC_SNET_VERIFY_HPP

/// \file verify.hpp
/// Whole-topology shape-flow verification: an abstract interpretation of
/// record-type flow over the combinator tree, and the tree's only one —
/// check.hpp's `infer`/`propagate` are projections of its report. Where
/// inference throws on the first type error, `verify` walks the
/// *reachable type set* through every component — seeded from the entry
/// signature (or a caller-supplied client type set), widened through boxes
/// via their declared output lower bounds, through filters via their
/// output specifiers, with flow inheritance and tag operations applied —
/// and collects every diagnostic it can prove:
///
///  * `UnroutableRecord` — a reachable type no component at that point
///    accepts (box/filter input mismatch, a parallel combinator where no
///    branch matches, a split without the replication tag, a star variant
///    that neither exits nor re-enters). With `StarNoProgress` these are
///    the *type errors*: `propagate` throws on the first of them, as the
///    runtime raises NetTypeError / FilterError on such records.
///  * `DeadBranch` — a parallel branch that is never in the best-match
///    argmax set for any reachable type. Branch scoring goes through
///    `detail::ParallelRouter::tied_for`, the same argmax collection the
///    runtime router compiles per shape, over the same flattened branch
///    list `Topology::instantiate` builds — so a statically-dead branch is
///    one the runtime can provably never route a record of any reachable
///    lower-bound type to.
///  * `NeverFiringSync` — a synchrocell with a pattern slot no reachable
///    type can fill: the cell stores partial matches forever and its
///    output never appears.
///  * `StarNoProgress` — a serial replication whose exit pattern is
///    unreachable from the closure of the replica's outputs: records
///    circulate (or pile up) without ever being tapped out.
///  * `Config*` — option values that statically guarantee wedge-or-spill:
///    a det/sync interior cap smaller than what a synchrocell must buffer
///    before it can ever fire, a session output credit below the
///    topology's guaranteed per-record fan-out, an inbox bound below a
///    single filter burst, or a det cap configured for a topology with
///    nothing to charge it against.
///
/// Severity policy follows the lower-bound semantics of propagated types
/// (check.hpp: "actual records may always carry additional labels"):
/// a diagnostic is an **Error** when extra runtime labels cannot rescue
/// the situation (unroutable records: more labels only raise match
/// scores, but a variant already unroutable at a *box or filter* whose
/// consumed type is not included stays broken for records of exactly that
/// type — the same cases `infer` throws for; star exit unreachable), and a
/// **Warning** when they could (a dead branch can win on a wider record;
/// a sync slot can be filled by a wider record; config lints depend on
/// runtime consumption patterns).
///
/// `verify` never throws on topology defects — it reports them all,
/// together with the reachable output set. `Network` runs it once at
/// construction: `Options::verify` picks what happens to the report
/// (off / warn-to-stderr / strict-throw), a type error throws
/// TypeCheckError in every mode, and the output set becomes the network's
/// signature. The `snetlint` tool runs it standalone and renders a DOT
/// overlay (dot.hpp).

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "snet/net.hpp"
#include "snet/rtypes.hpp"

namespace snet {

enum class LintCode {
  UnroutableRecord,
  DeadBranch,
  NeverFiringSync,
  StarNoProgress,
  ConfigDetCapacity,
  ConfigDetUnused,
  ConfigOutputCredit,
  ConfigInboxCapacity,
};

enum class LintSeverity { Warning, Error };

/// The stable diagnostic name, e.g. "dead-branch" — what snetlint prints
/// and what `--expect` matches.
const char* to_string(LintCode code);
const char* to_string(LintSeverity severity);

struct LintDiagnostic {
  LintCode code;
  LintSeverity severity;
  /// Combinator path in `Topology::instantiate` naming, e.g.
  /// "net/parL/parR/sync" — the entity the runtime would build for this
  /// tree position (star replicas appear as "star/rep*": one static
  /// verdict covers every unfolded stage).
  std::string path;
  /// The offending record type (or pattern/option value for sync/config
  /// diagnostics), pretty-printed.
  std::string type;
  std::string message;

  std::string to_string() const;
};

/// Tunables mirrored from Options (network.hpp) — duplicated here so the
/// verifier stays usable without a Network (snetlint links snet only).
struct VerifyOptions {
  /// Client record types to seed the flow with; empty = the topology's
  /// own required input (phase-1 inference), the weakest sound seed.
  MultiType seed;
  /// Options::det_capacity (0 = unbounded, disables the det config lints).
  std::size_t det_capacity = 0;
  /// True when Options::det_overflow == OverflowPolicy::FailFast.
  bool det_fail_fast = false;
  /// Options::output_capacity (0 = unbounded).
  std::size_t output_capacity = 0;
  /// Options::inbox_capacity (0 = unbounded).
  std::size_t inbox_capacity = 0;
};

struct VerifyReport {
  std::vector<LintDiagnostic> diagnostics;
  /// The (lower-bound) record types the topology can emit for the seed:
  /// unroutable variants dropped, each variant listed once.
  MultiType output;

  bool empty() const { return diagnostics.empty(); }
  bool has_errors() const;
  /// The first UnroutableRecord or StarNoProgress diagnostic — the defects
  /// signature inference rejects — or null when there is none.
  const LintDiagnostic* first_type_error() const;
  std::size_t count(LintCode code) const;
  /// One line per diagnostic, "severity code path: message" — stable
  /// enough for tests to assert on.
  std::string to_string() const;
};

/// Thrown by Network construction under VerifyMode::Strict (and usable by
/// callers who want throw-on-defect semantics around verify()).
class VerifyError : public std::runtime_error {
 public:
  explicit VerifyError(VerifyReport report)
      : std::runtime_error(report.to_string()), report_(std::move(report)) {}
  const VerifyReport& report() const { return report_; }

 private:
  VerifyReport report_;
};

/// Runs the shape-flow verification over \p net. Never throws on topology
/// defects (they become diagnostics); throws std::invalid_argument only on
/// a null \p net.
VerifyReport verify(const Net& net, const VerifyOptions& opts = {});

}  // namespace snet

#endif
