#include "hops.hpp"

#include <string>

#include "puzzles.hpp"
#include "snet/value.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMod = 1000003;
constexpr const char* kStepSignature = "(x, <v>) -> (x, <v>)";
// The linear run: filter, step, filter, step, filter.
constexpr const char* kRunFilters[] = {
    "{<v>} -> {<v>=<v>+1}",
    "{<v>} -> {<v>=(<v>*3)%1009}",
    "{<t>, <v>} -> {<t>, <v>, <w>=<t>+<v>}",
};

void step_body(const snet::BoxInput& in, snet::BoxOutput& out) {
  const std::int64_t x = in.get<std::int64_t>("x");
  const std::int64_t v = in.tag("v");
  out.out(1, (x * 31 + v) % kMod, v);
}

std::int64_t step(std::int64_t x, std::int64_t v) { return (x * 31 + v) % kMod; }

snet::FilterSpec branch_spec(int i) {
  const std::string b = "<b" + std::to_string(i) + ">";
  return snet::FilterSpec::parse("{x, " + b + "} -> {x, <t>=" + b + "%" +
                                 std::to_string(kHopSplitWidth) + ", <v>=" + b + "%97}");
}

/// Captures a box's emission for HopSequential.
class Capture final : public snet::BoxOutput {
 public:
  void emit(int, std::vector<snet::BoxArg> args) override { args_ = std::move(args); }
  std::vector<snet::BoxArg> args_;
};

}  // namespace

snet::Net hop_net(bool det) {
  snet::Net entry = snet::filter(branch_spec(kHopBranches - 1));
  for (int i = kHopBranches - 2; i >= 0; --i) {
    entry = snet::parallel(snet::filter(branch_spec(i)), entry);
  }
  const snet::Net step_box = snet::box("step", kStepSignature, step_body);
  const snet::Net run = snet::filter(kRunFilters[0]) >> step_box >>
                        snet::filter(kRunFilters[1]) >> step_box >>
                        snet::filter(kRunFilters[2]);
  return entry >> (det ? snet::split_det(run, "t") : snet::split(run, "t"));
}

HopSequential::HopSequential() : step_sig_(snet::Signature::parse(kStepSignature)) {
  for (int i = 0; i < kHopBranches; ++i) {
    branches_.push_back(branch_spec(i));
  }
  for (const char* f : kRunFilters) {
    run_.push_back(snet::FilterSpec::parse(f));
  }
}

snet::Record HopSequential::run(const HopInput& in, std::int64_t id) const {
  static const snet::Label x_label = snet::field_label("x");
  static const snet::Label v_label = snet::tag_label("v");
  auto filter = [](const snet::FilterSpec& f, const snet::Record& r) {
    return std::move(f.apply(r).front());
  };
  auto box = [this](snet::Record r) {
    Capture out;
    step_body(snet::BoxInput(r, step_sig_.input), out);
    // The declared outputs replace their labels; the rest flow-inherit.
    r.set_field(x_label, snet::make_value(out.args_[0].integer));
    r.set_tag(v_label, out.args_[1].integer);
    return r;
  };
  snet::Record r = filter(branches_[static_cast<std::size_t>(in.branch)], hop_record(in, id));
  r = box(filter(run_[0], r));
  r = box(filter(run_[1], r));
  return filter(run_[2], r);
}

std::vector<HopInput> hop_inputs(std::uint64_t seed, std::size_t count) {
  std::vector<HopInput> out(count);
  std::uint64_t state = mix64(seed ^ 0x40b5ULL);
  for (HopInput& in : out) {
    state = mix64(state);
    in.x = static_cast<std::int64_t>(state % kMod);
    in.key = static_cast<std::int64_t>((state >> 24) % 10000);
    in.branch = static_cast<int>((state >> 48) % kHopBranches);
  }
  return out;
}

snet::Record hop_record(const HopInput& in, std::int64_t id) {
  static const std::vector<snet::Label> branch_tags = [] {
    std::vector<snet::Label> tags;
    for (int i = 0; i < kHopBranches; ++i) {
      std::string name = "b";  // appended, not operator+: gcc 12 -Wrestrict
      name += std::to_string(i);
      tags.push_back(snet::tag_label(name));
    }
    return tags;
  }();
  static const snet::Label x_label = snet::field_label("x");
  static const snet::Label id_label = snet::tag_label("id");
  snet::Record r;
  r.set_field(x_label, snet::make_value(in.x));
  r.set_tag(id_label, id);
  r.set_tag(branch_tags[static_cast<std::size_t>(in.branch)], in.key);
  return r;
}

HopOutput hop_expected(const HopInput& in) {
  HopOutput o;
  o.t = in.key % kHopSplitWidth;
  std::int64_t v = in.key % 97 + 1;
  std::int64_t x = step(in.x, v);
  v = (v * 3) % 1009;
  x = step(x, v);
  o.x = x;
  o.v = v;
  o.w = o.t + v;
  return o;
}

bool hop_read(const snet::Record& r, HopOutput& out) {
  static const snet::Label x_label = snet::field_label("x");
  static const snet::Label t_label = snet::tag_label("t");
  static const snet::Label v_label = snet::tag_label("v");
  static const snet::Label w_label = snet::tag_label("w");
  if (!r.has_field(x_label) || !r.has_tag(t_label) || !r.has_tag(v_label) ||
      !r.has_tag(w_label)) {
    return false;
  }
  const snet::Value& x = r.field(x_label);
  if (x == nullptr || x->type() != typeid(std::int64_t)) {
    return false;
  }
  out.x = snet::value_as<std::int64_t>(x);
  out.t = r.tag(t_label);
  out.v = r.tag(v_label);
  out.w = r.tag(w_label);
  return true;
}

std::int64_t item_of(const snet::Record& r) {
  static const snet::Label id_label = snet::tag_label("id");
  return r.has_tag(id_label) ? r.tag(id_label) : -1;
}

}  // namespace perfbench
