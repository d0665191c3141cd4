#include "snet/net.hpp"

#include <sstream>
#include <stdexcept>

namespace snet {

namespace {
std::shared_ptr<NetNode> make_node(NetNode::Kind kind) {
  auto n = std::make_shared<NetNode>();
  n->kind = kind;
  return n;
}

void require(const Net& n, const char* what) {
  if (!n) {
    throw std::invalid_argument(std::string("null operand for ") + what);
  }
}
}  // namespace

Net box(std::string name, const std::string& signature, BoxFn fn) {
  return box(std::move(name), Signature::parse(signature), std::move(fn));
}

Net box(std::string name, Signature sig, BoxFn fn) {
  auto n = make_node(NetNode::Kind::Box);
  n->name = std::move(name);
  n->sig = std::move(sig);
  n->fn = std::move(fn);
  return n;
}

Net filter(const std::string& spec) { return filter(FilterSpec::parse(spec)); }

Net filter(FilterSpec spec) {
  auto n = make_node(NetNode::Kind::Filter);
  n->filter = std::make_shared<const FilterSpec>(std::move(spec));
  return n;
}

Net serial(Net a, Net b) {
  require(a, "serial composition");
  require(b, "serial composition");
  auto n = make_node(NetNode::Kind::Serial);
  n->left = std::move(a);
  n->right = std::move(b);
  return n;
}

namespace {
Net parallel_impl(Net a, Net b, bool det) {
  require(a, "parallel composition");
  require(b, "parallel composition");
  auto n = make_node(NetNode::Kind::Parallel);
  n->left = std::move(a);
  n->right = std::move(b);
  n->det = det;
  return n;
}

Net star_impl(Net a, Pattern exit, bool det) {
  require(a, "serial replication");
  auto n = make_node(NetNode::Kind::Star);
  n->child = std::move(a);
  n->exit = std::move(exit);
  n->det = det;
  return n;
}

Net split_impl(Net a, const std::string& tag, bool det) {
  require(a, "parallel replication");
  auto n = make_node(NetNode::Kind::Split);
  n->child = std::move(a);
  n->split_tag = tag_label(tag);
  n->det = det;
  return n;
}
}  // namespace

Net parallel(Net a, Net b) { return parallel_impl(std::move(a), std::move(b), false); }
Net parallel_det(Net a, Net b) { return parallel_impl(std::move(a), std::move(b), true); }

Net star(Net a, const std::string& exit_pattern) {
  return star_impl(std::move(a), Pattern::parse(exit_pattern), false);
}
Net star(Net a, Pattern exit) { return star_impl(std::move(a), std::move(exit), false); }
Net star_det(Net a, const std::string& exit_pattern) {
  return star_impl(std::move(a), Pattern::parse(exit_pattern), true);
}
Net star_det(Net a, Pattern exit) {
  return star_impl(std::move(a), std::move(exit), true);
}

Net split(Net a, const std::string& tag) { return split_impl(std::move(a), tag, false); }
Net split_det(Net a, const std::string& tag) {
  return split_impl(std::move(a), tag, true);
}

Net sync(std::initializer_list<std::string> patterns) {
  std::vector<Pattern> ps;
  ps.reserve(patterns.size());
  for (const auto& p : patterns) {
    ps.push_back(Pattern::parse(p));
  }
  return sync_patterns(std::move(ps));
}

Net sync_patterns(std::vector<Pattern> patterns) {
  if (patterns.size() < 2) {
    throw std::invalid_argument("synchrocell needs at least two patterns");
  }
  auto n = make_node(NetNode::Kind::Sync);
  n->sync_patterns = std::move(patterns);
  return n;
}

namespace {
void render(const Net& n, std::ostream& os) {
  switch (n->kind) {
    case NetNode::Kind::Box:
      os << n->name;
      return;
    case NetNode::Kind::Filter:
      os << n->filter->to_string();
      return;
    case NetNode::Kind::Serial:
      render(n->left, os);
      os << " .. ";
      render(n->right, os);
      return;
    case NetNode::Kind::Parallel:
      os << '(';
      render(n->left, os);
      os << (n->det ? " | " : " || ");
      render(n->right, os);
      os << ')';
      return;
    case NetNode::Kind::Star:
      os << '(';
      render(n->child, os);
      os << (n->det ? " * " : " ** ") << n->exit.to_string() << ')';
      return;
    case NetNode::Kind::Split:
      os << '(';
      render(n->child, os);
      os << (n->det ? " ! " : " !! ") << label_display(n->split_tag) << ')';
      return;
    case NetNode::Kind::Sync: {
      os << "[|";
      bool first = true;
      for (const auto& p : n->sync_patterns) {
        os << (first ? "" : ", ") << p.to_string();
        first = false;
      }
      os << "|]";
      return;
    }
  }
}
}  // namespace

std::string describe(const Net& net) {
  std::ostringstream os;
  render(net, os);
  return os.str();
}

namespace {
void flatten_branch(const Net& n, std::string path,
                    std::vector<ParallelBranch>& out) {
  if (n->kind == NetNode::Kind::Parallel && !n->det) {
    flatten_branch(n->left, path + "/parL", out);
    flatten_branch(n->right, path + "/parR", out);
    return;
  }
  out.push_back(ParallelBranch{n, std::move(path)});
}
}  // namespace

std::vector<ParallelBranch> parallel_branches(const Net& par,
                                              const std::string& prefix) {
  std::vector<ParallelBranch> out;
  flatten_branch(par->left, prefix + "/parL", out);
  flatten_branch(par->right, prefix + "/parR", out);
  return out;
}

}  // namespace snet
