#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "hops.hpp"
#include "sysinfo.hpp"

namespace perfbench {

namespace {

/// Spans and delivery instants kept per thread for the Chrome file; the
/// totals cover every span regardless.
constexpr std::size_t kKeepSpans = 10000;
constexpr std::size_t kKeepInstants = 10000;
/// Sampled delivery timestamps kept per thread for the gap percentiles.
constexpr std::size_t kKeepDeliveries = 4'000'000;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool on_cpu_clock(Layer layer) { return layer == Layer::Box || layer == Layer::Callback; }

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Now, in \p layer's clock.
std::int64_t clock_ns(Layer layer) {
  return on_cpu_clock(layer) ? thread_cpu_ns() : steady_ns();
}

struct SpanRec {
  const char* name;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t item;
  std::int64_t id;
  std::int64_t parent;
};

}  // namespace

struct Tracer::ThreadLog {
  struct Frame {
    const char* name;
    Layer layer;
    std::int64_t item;
    std::int64_t start_ns;  ///< wall, for the timeline
    std::int64_t clock0_ns;  ///< in the layer's clock
    std::int64_t child_ns;   ///< nested spans, each in its own clock
    std::int64_t id;
  };
  struct Acc {
    const char* name;
    Layer layer;
    LayerTotal total;
  };

  int tid = 0;
  std::int64_t index = 0;
  std::int64_t next_id = 0;
  std::mutex mu;  // the owning thread writes; totals() reads afterwards
  std::vector<Frame> stack;
  std::vector<Acc> accs;
  std::vector<SpanRec> spans;
  std::array<LayerTotal, kLayers> layers{};
  std::array<std::uint64_t, kHopKinds> hops{};
  std::vector<std::pair<std::int64_t, std::int64_t>> deliveries;  // item, ns
  std::unordered_map<const std::string*, Hop> kinds;

  void add(const char* name, Layer layer, std::int64_t self_ns, std::int64_t total_ns) {
    LayerTotal& l = layers[static_cast<std::size_t>(layer)];
    ++l.calls;
    l.self_ns += self_ns;
    l.total_ns += total_ns;
    for (Acc& a : accs) {
      if (a.name == name && a.layer == layer) {
        ++a.total.calls;
        a.total.self_ns += self_ns;
        a.total.total_ns += total_ns;
        return;
      }
    }
    accs.push_back(Acc{name, layer, LayerTotal{1, self_ns, total_ns}});
  }
};

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Ports: return "ports";
    case Layer::Box: return "box";
    case Layer::Callback: return "callback";
    case Layer::Wire: return "wire";
    case Layer::Hook: return "trace.hook";
  }
  return "?";
}

const char* hop_name(Hop hop) {
  switch (hop) {
    case Hop::Box: return "box";
    case Hop::Filter: return "filter";
    case Hop::Parallel: return "parallel";
    case Hop::Split: return "split";
    case Hop::Star: return "star";
    case Hop::Det: return "det";
    case Hop::Output: return "output";
    case Hop::Input: return "input";
    case Hop::Other: return "other";
  }
  return "?";
}

Hop classify_entity(std::string_view name) {
  const auto slash = name.rfind('/');
  const std::string_view last =
      slash == std::string_view::npos ? name : name.substr(slash + 1);
  auto ends_with = [last](std::string_view s) {
    return last.size() >= s.size() && last.substr(last.size() - s.size()) == s;
  };
  if (last.rfind("box:", 0) == 0) return Hop::Box;
  if (last == "filter") return Hop::Filter;
  if (last == "par") return Hop::Parallel;
  if (last == "split") return Hop::Split;
  if (last.rfind("stage", 0) == 0) return Hop::Star;
  if (ends_with("-entry") || ends_with("-coll")) return Hop::Det;
  if (last == "output") return Hop::Output;
  if (last == "input") return Hop::Input;
  return Hop::Other;
}

Tracer::Tracer() : epoch_ns_(steady_ns()) {}
Tracer::~Tracer() = default;

Tracer& tracer() {
  static Tracer* t = new Tracer();  // outlives pool threads at exit
  return *t;
}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

Tracer::ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->tid = current_tid();
    const std::lock_guard lock(mu_);
    fresh->index = static_cast<std::int64_t>(logs_.size());
    log = fresh.get();
    logs_.push_back(std::move(fresh));
  }
  return *log;
}

void Tracer::register_thread() { local(); }

Tracer::ThreadLog* Tracer::begin(Layer layer, const char* name, std::int64_t item) {
  ThreadLog& log = local();
  const std::lock_guard lock(log.mu);
  const std::int64_t id = (log.index << 40) | log.next_id++;
  log.stack.push_back(ThreadLog::Frame{name, layer, item, now_ns(), clock_ns(layer), 0, id});
  return &log;
}

void Tracer::end(ThreadLog* log) {
  const std::int64_t t = now_ns();
  const std::lock_guard lock(log->mu);
  const ThreadLog::Frame f = log->stack.back();
  log->stack.pop_back();
  const std::int64_t dur = clock_ns(f.layer) - f.clock0_ns;
  std::int64_t parent = -1;
  if (!log->stack.empty()) {
    log->stack.back().child_ns += dur;
    parent = log->stack.back().id;
  }
  log->add(f.name, f.layer, dur - f.child_ns, dur);
  if (log->spans.size() < kKeepSpans) {
    log->spans.push_back(SpanRec{f.name, f.layer, f.start_ns, t, f.item, f.id, parent});
  }
}

std::function<void(const std::string&, const snet::Record&)> Tracer::delivery_hook(
    std::int64_t sample_every) {
  return [this, sample_every](const std::string& entity, const snet::Record& r) {
    if (!on()) {
      local();  // learn the pool's threads during warm-up
      return;
    }
    const std::int64_t t0 = now_ns();
    ThreadLog& log = local();
    const std::int64_t item = item_of(r);
    const std::lock_guard lock(log.mu);
    auto it = log.kinds.find(&entity);
    if (it == log.kinds.end()) {
      it = log.kinds.emplace(&entity, classify_entity(entity)).first;
    }
    ++log.hops[static_cast<std::size_t>(it->second)];
    if (item >= 0 && item % sample_every == 0 &&
        log.deliveries.size() < kKeepDeliveries) {
      log.deliveries.emplace_back(item, t0);
    }
    const std::int64_t dur = now_ns() - t0;
    if (!log.stack.empty()) {
      log.stack.back().child_ns += dur;
    }
    log.add("trace.hook", Layer::Hook, dur, dur);
  };
}

snet::Net Tracer::wrap_boxes(const snet::Net& net) {
  if (net == nullptr) {
    return net;
  }
  auto copy = std::make_shared<snet::NetNode>(*net);
  if (net->kind == snet::NetNode::Kind::Box) {
    const char* name = nullptr;
    {
      const std::lock_guard lock(mu_);
      name = names_.insert(net->name).first->c_str();
    }
    copy->fn = [inner = net->fn, name](const snet::BoxInput& in, snet::BoxOutput& out) {
      const Span span(Layer::Box, name, -1);
      inner(in, out);
    };
  }
  copy->left = wrap_boxes(net->left);
  copy->right = wrap_boxes(net->right);
  copy->child = wrap_boxes(net->child);
  return copy;
}

TraceTotals Tracer::totals() const {
  TraceTotals out;
  std::vector<std::pair<std::int64_t, std::int64_t>> deliveries;
  const std::lock_guard lock(mu_);
  for (const auto& log : logs_) {
    const std::lock_guard log_lock(log->mu);
    for (std::size_t l = 0; l < kLayers; ++l) {
      out.layers[l].calls += log->layers[l].calls;
      out.layers[l].self_ns += log->layers[l].self_ns;
      out.layers[l].total_ns += log->layers[l].total_ns;
    }
    for (const auto& a : log->accs) {
      LayerTotal& t = out.by_name[a.name];
      t.calls += a.total.calls;
      t.self_ns += a.total.self_ns;
      t.total_ns += a.total.total_ns;
    }
    for (std::size_t h = 0; h < kHopKinds; ++h) {
      out.hops[h] += log->hops[h];
    }
    deliveries.insert(deliveries.end(), log->deliveries.begin(), log->deliveries.end());
    out.tids.insert(log->tid);
  }
  std::sort(deliveries.begin(), deliveries.end());
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    if (deliveries[i].first == deliveries[i - 1].first) {
      out.gaps_us.push_back(
          static_cast<double>(deliveries[i].second - deliveries[i - 1].second) / 1e3);
    }
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  auto emit = [&](const char* text) {
    out << (first ? "" : ",\n") << text;
    first = false;
  };
  const std::lock_guard lock(mu_);
  for (const auto& log : logs_) {
    const std::lock_guard log_lock(log->mu);
    for (const SpanRec& s : log->spans) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"item\":%lld,"
                    "\"span\":%lld,\"parent\":%lld}}",
                    s.name, layer_name(s.layer), log->tid,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<long long>(s.item), static_cast<long long>(s.id),
                    static_cast<long long>(s.parent));
      emit(buf);
    }
    const std::size_t instants = std::min(log->deliveries.size(), kKeepInstants);
    for (std::size_t i = 0; i < instants; ++i) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"deliver\",\"cat\":\"hops\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"item\":%lld}}",
                    log->tid, static_cast<double>(log->deliveries[i].second) / 1e3,
                    static_cast<long long>(log->deliveries[i].first));
      emit(buf);
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
