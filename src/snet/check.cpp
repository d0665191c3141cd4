#include "snet/check.hpp"

#include "snet/verify.hpp"

namespace snet {

MultiType required_input(const Net& n) {
  if (!n) {
    throw TypeCheckError("null network expression");
  }
  switch (n->kind) {
    case NetNode::Kind::Box:
      return n->sig.input_type();
    case NetNode::Kind::Filter:
      return MultiType({n->filter->pattern().type});
    case NetNode::Kind::Serial:
      return required_input(n->left);
    case NetNode::Kind::Parallel:
      return required_input(n->left).union_with(required_input(n->right));
    case NetNode::Kind::Star: {
      // The declared input is the replica's input. Records that already
      // match the exit pattern are tapped out before the first replica at
      // run time whatever their type, but declaring the bare exit type as
      // an *input variant* would manufacture record types (e.g. a board-less
      // `{<done>}`) that downstream components cannot be expected to accept.
      return required_input(n->child);
    }
    case NetNode::Kind::Split: {
      std::vector<RecordType> in;
      const MultiType child_in = required_input(n->child);
      for (auto v : child_in.variants()) {
        v.add(n->split_tag);
        in.push_back(std::move(v));
      }
      return MultiType(std::move(in));
    }
    case NetNode::Kind::Sync: {
      MultiType in;
      for (const auto& p : n->sync_patterns) {
        in.add(p.type);
      }
      return in;
    }
  }
  throw TypeCheckError("corrupt network node");
}

MultiType propagate(const Net& net, const MultiType& incoming) {
  if (incoming.empty()) {
    return {};
  }
  VerifyOptions opts;
  opts.seed = incoming;
  VerifyReport report = verify(net, opts);
  if (const LintDiagnostic* e = report.first_type_error()) {
    throw TypeCheckError(e->message);
  }
  return std::move(report.output);
}

NetSignature infer(const Net& net) {
  const MultiType in = required_input(net);
  const MultiType out = propagate(net, in);
  return NetSignature{in, out};
}

}  // namespace snet
