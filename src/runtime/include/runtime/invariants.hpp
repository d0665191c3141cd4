#ifndef SNETSAC_RUNTIME_INVARIANTS_HPP
#define SNETSAC_RUNTIME_INVARIANTS_HPP

/// \file invariants.hpp
/// The checked-build invariant layer (`-DSNETSAC_CHECKED=ON`).
///
/// Three facilities, all zero-cost when SNETSAC_CHECKED is off:
///
///  1. `ProtocolInvariantError` — the exception every protocol-invariant
///     violation raises. Always compiled (tests and tools catch it in
///     any build flavour); only the *inline* per-operation checks are
///     gated behind SNETSAC_CHECKED.
///  2. `SNETSAC_INVARIANT(cond, expr)` — per-operation conservation
///     checks sprinkled through the hot protocol paths (credit account
///     arithmetic, live counters, det release order). Compiles away
///     entirely unless SNETSAC_CHECKED.
///  3. `checked::` — the dynamic lock-order registry behind the
///     annotated Mutex (annotations.hpp): a thread-local stack of held
///     locks with declared ranks; acquiring a ranked mutex while holding
///     a same-or-higher rank is a cycle waiting for its second thread,
///     and fails immediately with both names.
///
/// Violations *throw* (after printing to stderr) rather than calling
/// std::abort: schedcheck catches the error, prints the failing seed and
/// yield-point trace, and keeps sweeping; an uncaught violation still
/// terminates the process with the diagnostic visible.

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace snetsac::runtime {

/// A protocol invariant did not hold: credit accounting drifted, a
/// counter went negative, a wakeup was lost, or locks were taken out of
/// order. Carries a human-readable description of the law and the state
/// that broke it.
class ProtocolInvariantError : public std::logic_error {
 public:
  explicit ProtocolInvariantError(const std::string& what)
      : std::logic_error(what) {}
};

/// Formats + prints the violation to stderr, then throws
/// ProtocolInvariantError. Out-of-line so the macro below stays cheap at
/// the call site. Always compiled: Network::check_protocol_invariants and
/// MpscQueue's lost-wakeup query report through it in every build flavour.
[[noreturn]] void invariant_failure(const char* law, const std::string& detail);

#if SNETSAC_CHECKED

namespace checked {

/// Called before blocking on a ranked mutex: verifies no same-or-higher
/// ranked lock is already held by this thread (rank 0 = unranked, exempt
/// from order checking but still tracked for assert_thread_holds).
void note_lock_attempt(const void* mu, unsigned rank, const char* name);

/// Called after the mutex is held; pushes it on this thread's held stack.
void note_locked(const void* mu, unsigned rank, const char* name);

/// Called before the mutex is released; pops it from the held stack.
void note_unlocked(const void* mu);

/// Dynamic counterpart of SNETSAC_ASSERT_CAPABILITY: fails unless this
/// thread currently holds `mu`.
void assert_thread_holds(const void* mu, const char* name);

/// True if this thread holds `mu` (query form, used by invariant checks
/// that are themselves conditional).
bool thread_holds(const void* mu);

}  // namespace checked

#define SNETSAC_INVARIANT(cond, detail_expr)                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream snetsac_inv_os_;                                 \
      snetsac_inv_os_ << detail_expr;                                     \
      ::snetsac::runtime::invariant_failure(#cond, snetsac_inv_os_.str());\
    }                                                                     \
  } while (0)

#else  // !SNETSAC_CHECKED

// `cond` stays an unevaluated operand, so variables that exist only to be
// checked are still "used" in unchecked builds; it generates no code.
#define SNETSAC_INVARIANT(cond, detail_expr) \
  do {                                       \
    (void)sizeof(!(cond));                   \
  } while (0)

#endif  // SNETSAC_CHECKED

}  // namespace snetsac::runtime

#endif
