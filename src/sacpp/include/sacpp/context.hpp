#ifndef SNETSAC_SACPP_CONTEXT_HPP
#define SNETSAC_SACPP_CONTEXT_HPP

/// \file context.hpp
/// Execution context for data-parallel with-loop evaluation.
///
/// In SaC, data parallelism is fully implicit: "it just requires
/// multi-threaded code generation to be enabled" (paper, Section 3). The
/// analogue here is a process-wide context selecting the number of worker
/// threads; with-loops consult it transparently. `SAC_THREADS=1` reproduces
/// sequential code generation.

#include <cstdint>

#include "runtime/env.hpp"
#include "runtime/executor.hpp"

namespace sac {

struct Context {
  /// Maximum number of concurrent chunks a with-loop may be split into.
  /// 1 means strictly sequential evaluation on the calling thread.
  unsigned threads = 1;
  /// Minimum number of index-space elements per chunk; prevents
  /// parallelising trivially small with-loops.
  std::int64_t grain = 1024;
};

/// The process-wide default context. Initialised once from `SAC_THREADS`
/// (fallback: hardware concurrency). Mutable so tests and benchmarks can
/// sweep thread counts. Inline: every with-loop call without an explicit
/// context reads it.
inline Context& default_context() {
  static Context ctx{snetsac::runtime::default_sac_threads(), 1024};
  return ctx;
}

/// The executor with-loops execute on: the process-wide pool shared with
/// the S-Net scheduler (the context's `threads` caps how much of it a
/// single with-loop uses). A with-loop opened inside a box quantum has its
/// chunks run by the same workers — the caller helps and steals instead of
/// blocking, so nesting neither deadlocks nor oversubscribes.
snetsac::runtime::Executor& sac_pool();

}  // namespace sac

#endif
