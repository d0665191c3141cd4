#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// The traced run's span recorder. Spans are taken from the benchmark's
/// own code, around its calls into each layer: port calls on the client,
/// product box bodies (wrapped in a copied topology), the on_output
/// callback, wire calls, and the `Options::trace` delivery hook itself.
///
/// Each span has a name, a layer, start, end, parent and the item id it
/// serves (-1 where the call cannot see one: a box body sees only its
/// declared labels). Per thread, a span's *self* time is its duration
/// minus the spans nested inside it; self times are summed per layer and
/// per name for the whole traced phase, and the first spans of each
/// thread are kept for the Chrome trace-event file written at exit.
/// Box and callback spans, which run on pool threads, take their duration
/// from the thread's CPU clock, so a vCPU the host preempts mid-box does
/// not count as box time; port, wire and hook spans use wall time.
/// Nothing is recorded while the tracer is off, so the untraced phase
/// pays one relaxed load per span site.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "snet/net.hpp"
#include "snet/record.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { Ports, Box, Callback, Wire, Hook };
inline constexpr std::size_t kLayers = 5;
const char* layer_name(Layer layer);

/// Entity kinds a delivery can target, from the runtime's entity names.
enum class Hop : std::uint8_t { Box, Filter, Parallel, Split, Star, Det, Output, Input, Other };
inline constexpr std::size_t kHopKinds = 9;
const char* hop_name(Hop hop);
/// Kind of the entity named \p name ("net/split[2]/box:step" -> Box).
Hop classify_entity(std::string_view name);

/// Span time in the layer's clock (thread CPU for Box and Callback, wall
/// otherwise).
struct LayerTotal {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
};

/// Everything one traced phase recorded, merged over threads.
struct TraceTotals {
  std::array<LayerTotal, kLayers> layers{};
  /// Per span name (box names for the Box layer).
  std::map<std::string, LayerTotal> by_name;
  std::array<std::uint64_t, kHopKinds> hops{};
  /// Time between successive deliveries of one sampled item's records.
  std::vector<double> gaps_us;
  /// Threads that recorded anything (client and pool workers).
  std::set<int> tids;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_on(bool on) { on_.store(on, std::memory_order_release); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// An `Options::trace` callback: counts deliveries by entity kind and
  /// timestamps those of items whose id is a multiple of \p sample_every.
  /// Its own running time is the Hook layer.
  std::function<void(const std::string&, const snet::Record&)> delivery_hook(
      std::int64_t sample_every);

  /// A copy of \p net whose box functions run inside a Box span named
  /// after the box; the product topology itself is not modified.
  snet::Net wrap_boxes(const snet::Net& net);

  /// Registers the calling thread (so its tid counts as a traced thread
  /// even before it records a span).
  void register_thread();

  /// Merged totals. Call only once no thread records any more (tracer off
  /// and the traced network destroyed).
  TraceTotals totals() const;

  /// Writes the kept spans and sampled deliveries as Chrome trace-event
  /// JSON (opens in Perfetto or chrome://tracing).
  void write_chrome_json(const std::string& path) const;

  /// Span bookkeeping; use the Span guard below.
  struct ThreadLog;
  ThreadLog* begin(Layer layer, const char* name, std::int64_t item);
  void end(ThreadLog* log);

 private:
  ThreadLog& local();
  std::int64_t now_ns() const;

  std::atomic<bool> on_{false};
  const std::int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::set<std::string> names_;  // stable storage for box span names
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span: records nothing when the tracer is off at construction.
class Span {
 public:
  Span(Layer layer, const char* name, std::int64_t item)
      : log_(tracer().on() ? tracer().begin(layer, name, item) : nullptr) {}
  ~Span() {
    if (log_ != nullptr) {
      tracer().end(log_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadLog* log_;
};

}  // namespace perfbench

#endif
