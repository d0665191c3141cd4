#ifndef PERFBENCH_SYSINFO_HPP
#define PERFBENCH_SYSINFO_HPP

/// \file sysinfo.hpp
/// Clocks, resource usage and host facts read from the OS.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Monotonic wall clock in seconds.
double wall_s();
/// CPU time of the whole process (all threads) in seconds.
double process_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();
/// Kernel thread id of the calling thread.
int current_tid();
/// CPU time in nanoseconds of every thread of the process, by thread id
/// (from /proc/self/task/<tid>/schedstat).
std::map<int, std::int64_t> thread_cpu_ns();

/// Whole-machine CPU time counters from /proc/stat, in clock ticks. Steal
/// is time the hypervisor ran something else while this VM's vCPUs had
/// work; it is 0 on bare metal.
struct MachineTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
MachineTicks machine_ticks();
/// Share of machine CPU time stolen between \p a and \p b.
double steal_share(const MachineTicks& a, const MachineTicks& b);

std::string cpu_model();
std::string kernel_release();

}  // namespace perfbench

#endif
