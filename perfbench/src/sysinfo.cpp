#include "sysinfo.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int current_tid() { return static_cast<int>(gettid()); }

std::map<int, std::int64_t> thread_cpu_ns() {
  std::map<int, std::int64_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path() / "schedstat");
    std::int64_t on_cpu_ns = 0;
    if (in >> on_cpu_ns) {
      out[std::stoi(name)] = on_cpu_ns;
    }
  }
  return out;
}

MachineTicks machine_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  MachineTicks t;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) {
      break;
    }
    t.total += v;
    if (field == 7) {
      t.steal = v;
    }
  }
  return t;
}

double steal_share(const MachineTicks& a, const MachineTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) / static_cast<double>(total) : 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel_release() {
  utsname u{};
  return uname(&u) == 0 ? std::string(u.release) : "unknown";
}

}  // namespace perfbench
