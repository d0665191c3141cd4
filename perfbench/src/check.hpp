#ifndef PERFBENCH_CHECK_HPP
#define PERFBENCH_CHECK_HPP

/// \file check.hpp
/// Output checking. Every workload item is expected to produce exactly one
/// correct output; the ledger classifies each item as ok, wrong (a
/// corrupted output), duplicated (more than one output) or missing (none
/// by the end of the drain). Any non-ok item fails the run.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  /// Registers items 0..n-1 as attempted (injected).
  void expect(std::size_t n);
  std::size_t attempted() const { return state_.size(); }

  /// One output arrived for \p item; \p correct is the workload's verdict
  /// on its content. Outputs for unknown items count as wrong.
  void deliver(std::int64_t item, bool correct);

  std::size_t missing() const;
  std::size_t duplicated() const { return duplicated_; }
  std::size_t wrong() const { return wrong_; }
  /// Items that were wrong, missing or duplicated.
  std::size_t failed() const;
  bool ok() const { return failed() == 0; }
  /// "wrong=1 duplicated=0 missing=2" — for the failure report.
  std::string summary() const;

 private:
  enum : std::uint8_t { kUnseen, kOk, kBad };
  std::vector<std::uint8_t> state_;  ///< per item
  std::size_t wrong_ = 0;
  std::size_t duplicated_ = 0;
  std::size_t unknown_ = 0;
};

/// Det-order check: within each stream (a session and entry branch of
/// tenant_det), outputs must arrive in inject order.
class OrderCheck {
 public:
  explicit OrderCheck(std::size_t streams) : last_(streams, -1) {}
  /// False when \p seq does not follow the stream's previous output.
  bool next(std::size_t stream, std::int64_t seq);
  std::size_t violations() const { return violations_; }

 private:
  std::vector<std::int64_t> last_;
  std::size_t violations_ = 0;
};

}  // namespace perfbench

#endif
