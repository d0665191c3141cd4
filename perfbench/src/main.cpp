/// perfbench: the repository benchmark program.
///
///   perfbench --workload <fig2_puzzles|hop_stream|tenant_det> --seed <n>
///             --seconds <s> --trace <0|1>
///
/// Generates the workload's inputs from the seed, runs it as a closed loop
/// for the given time, checks every output, and prints one JSON object as
/// the last line of standard output:
///
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ones (the layer table is printed above the JSON line). A
/// result file with the host and configuration facts is written to
/// .bench_results/ in the working directory, plus a Chrome trace-event
/// file for traced runs. Wrong outputs exit with status 1.

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "runtime/env.hpp"
#include "sysinfo.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fig2_puzzles|hop_stream|"
               "tenant_det> --seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

/// Ends the process if the run outlives its time limit: a wedged network
/// is a failure, not a hang.
class Watchdog {
 public:
  explicit Watchdog(int limit_s)
      : thread_([this, limit_s] {
          std::unique_lock lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(limit_s), [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %d s; aborting\n", limit_s);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

std::string result_json(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& e : o.metrics.entries) {
    s += first ? "" : ", ";
    first = false;
    s += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
         ", \"unit\": " + json_string(e.unit) + "}";
  }
  return s + "}}";
}

void write_result_file(const std::string& path, const RunConfig& cfg, const Outcome& o) {
  std::ofstream f(path);
  f << "{\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << json_string(cpu_model())
    << ", \"kernel\": " << json_string(kernel_release()) << "},\n"
    << "  \"config\": {\"workload\": " << json_string(cfg.workload)
    << ", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
    << ", \"trace\": " << (cfg.trace ? 1 : 0) << ", \"pool_threads\": " << cfg.pool
    << ", \"client_threads\": 1, \"setups\": " << cfg.setups
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"options\": " << (o.options.empty() ? "{}" : o.options) << "},\n"
    << "  \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : o.facts) {
    f << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  f << "},\n  \"failure\": " << json_string(o.failure)
    << ",\n  \"layer_table\": " << json_string(o.layer_table)
    << ",\n  \"result\": " << result_json(o) << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      have_seed = parse_u64(value, cfg.seed);
    } else if (flag == "--seconds") {
      parse_u64(value, seconds);
    } else if (flag == "--trace") {
      parse_u64(value, trace);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || seconds < 1 || seconds > 600 || trace > 1) {
    return usage("bad or missing arguments");
  }
  cfg.seconds = static_cast<int>(seconds);
  cfg.trace = trace == 1;
  Outcome (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "fig2_puzzles") {
    run = run_fig2_puzzles;
  } else if (cfg.workload == "hop_stream") {
    run = run_hop_stream;
  } else if (cfg.workload == "tenant_det") {
    run = run_tenant_det;
  } else {
    return usage(("unknown workload " + cfg.workload).c_str());
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // One core for the client thread, the rest for the executor pool, which
  // must be sized before anything touches it.
  const unsigned nproc = snetsac::runtime::hardware_threads();
  cfg.pool = nproc > 1 ? nproc - 1 : 1;
  setenv("SNETSAC_THREADS", std::to_string(cfg.pool).c_str(), 1);
  setenv("SAC_THREADS", std::to_string(cfg.pool).c_str(), 1);

  cfg.out_dir = ".bench_results";
  std::filesystem::create_directories(cfg.out_dir);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + "-trace" + std::to_string(trace);

  const Watchdog watchdog(cfg.seconds + 90);
  Outcome o;
  try {
    o = run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  if (cfg.trace) {
    tracer().write_chrome_json(stem + ".trace.json");
    std::cout << cfg.workload << " " << o.layer_table;
  }
  write_result_file(stem + ".json", cfg, o);
  if (!o.correct) {
    std::fprintf(stderr, "perfbench: wrong outputs: %s\n", o.failure.c_str());
  }
  std::cout << result_json(o) << std::endl;
  return o.correct ? 0 : 1;
}
