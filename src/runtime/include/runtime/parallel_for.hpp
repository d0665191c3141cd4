#ifndef SNETSAC_RUNTIME_PARALLEL_FOR_HPP
#define SNETSAC_RUNTIME_PARALLEL_FOR_HPP

/// \file parallel_for.hpp
/// Fork-join helpers on top of the unified Executor. This is the execution
/// engine behind SaC's implicit data parallelism: a with-loop's index space
/// is partitioned into contiguous chunks distributed over the workers,
/// exactly like SaC's multithreaded code generation distributes with-loop
/// ranges.
///
/// The join is *cooperative*: when the caller is itself an executor worker
/// (a with-loop opened inside an S-Net box quantum), it does not block a
/// pool slot — it executes queued tasks, preferring its own chunks, until
/// the region completes (Executor::help_until). Nested data parallelism on
/// a fixed-size pool therefore cannot deadlock and never oversubscribes.

#include <cstdint>
#include <exception>
#include <functional>

#include "runtime/executor.hpp"

namespace snetsac::runtime {

/// Runs `body(lo, hi)` over disjoint chunks covering [begin, end).
/// The calling thread participates; the call returns once every chunk has
/// finished. The first exception thrown by any chunk is rethrown here.
/// `grain` is the minimum chunk width (>= 1); chunk count never exceeds
/// `max_tasks` (0 means executor size + 1).
void parallel_for_chunks(Executor& exec, std::int64_t begin, std::int64_t end,
                         std::int64_t grain,
                         const std::function<void(std::int64_t, std::int64_t)>& body,
                         unsigned max_tasks = 0);

}  // namespace snetsac::runtime

#endif
