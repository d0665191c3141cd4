/// \file snetlint.cpp
/// Standalone front-end for the whole-topology shape-flow verifier
/// (snet/verify.hpp): lint a textual S-Net program without running it.
///
/// Usage: snetlint [--strict] [--dot FILE] [--expect CODES] program.snet
///
///   --strict        warnings fail the lint (exit 1), not just errors
///   --dot FILE      write the topology as Graphviz DOT with the verifier's
///                   findings painted on (errors red, warnings orange)
///   --expect CODES  negative-fixture mode: CODES is a comma-separated
///                   list of diagnostic codes (e.g.
///                   "dead-branch,never-firing-sync"); exit 0 iff the
///                   report contains a diagnostic with *every* listed
///                   code, exit 2 otherwise — how CI asserts that an
///                   intentionally-broken example stays broken in exactly
///                   the intended ways
///
/// Besides the diagnostics, the report lists every router with the
/// entities that resolve it in their own thread (snet::routed_edges, see
/// snet::Router), and every linear segment the runtime fuses
/// (Topology::instantiate runs each stage after a segment's first inline,
/// see snet::serial_segments), one line each:
///
///   routed: net/star/stage* <- net/filter, net/star/rep*/split[*]/box:solveOneLevelK
///   routed: net/star/rep*/split <- net/star/stage*
///   fused: net/box:computeOpts -> net/filter
///
/// with the names instantiate gives the entities; `*` stands for the star
/// stage number or split tag value of replicas created on demand.
///
/// Box *declarations* in the program are bound to no-op stubs: the lint
/// needs only the declared signatures (coordination is data; computation
/// is irrelevant to shape flow). Exit codes: 0 clean (or expected
/// diagnostic found), 1 diagnostics reported, 2 --expect not satisfied,
/// 3 usage/parse/IO error.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "snet/dot.hpp"
#include "snet/lang.hpp"
#include "snet/network.hpp"
#include "snet/verify.hpp"

namespace {

/// Scans the program text for `box IDENT (`-shaped declarations and binds
/// each name to a stub implementation. A crude token walk is enough: the
/// keyword `box` in declaration position is always followed by an
/// identifier and the signature's opening parenthesis (a *label* named
/// "box" inside a pattern is followed by ',' or '}' instead).
void bind_declared_boxes(const std::string& source, snet::lang::Bindings& bindings) {
  std::vector<std::string> tokens;
  for (std::size_t i = 0; i < source.size();) {
    const char c = source[i];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[j])) ||
              source[j] == '_')) {
        ++j;
      }
      tokens.push_back(source.substr(i, j - i));
      i = j;
    } else if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      while (i < source.size() && source[i] != '\n') {
        ++i;
      }
    } else {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        tokens.push_back(std::string(1, c));
      }
      ++i;
    }
  }
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i] == "box" && tokens[i + 2] == "(") {
      bindings.bind_box(tokens[i + 1],
                        [](const snet::BoxInput&, snet::BoxOutput&) {});
    }
  }
}

/// Splits the --expect operand on commas; empty segments (a stray
/// trailing comma) are dropped rather than becoming never-matchable codes.
std::vector<std::string> split_codes(const std::string& list) {
  std::vector<std::string> codes;
  std::string cur;
  for (const char c : list) {
    if (c == ',') {
      if (!cur.empty()) {
        codes.push_back(cur);
      }
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    codes.push_back(cur);
  }
  return codes;
}

int usage() {
  std::fprintf(stderr,
               "usage: snetlint [--strict] [--dot FILE] [--expect CODES] "
               "program.snet\n");
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  std::string dot_path;
  std::string expect;
  std::string program;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--expect" && i + 1 < argc) {
      expect = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (program.empty()) {
      program = arg;
    } else {
      return usage();
    }
  }
  if (program.empty()) {
    return usage();
  }

  try {
    std::ifstream in(program);
    if (!in) {
      std::fprintf(stderr, "snetlint: cannot open %s\n", program.c_str());
      return 3;
    }
    std::ostringstream src;
    src << in.rdbuf();

    snet::lang::Bindings bindings;
    bind_declared_boxes(src.str(), bindings);
    const snet::Net topology = snet::lang::parse_network(src.str(), bindings);

    const snet::VerifyReport report = snet::verify(topology);

    if (!dot_path.empty()) {
      std::ofstream dot(dot_path);
      if (!dot) {
        std::fprintf(stderr, "snetlint: cannot write %s\n", dot_path.c_str());
        return 3;
      }
      dot << snet::to_dot(topology, report);
    }

    std::printf("network: %s\n", snet::describe(topology).c_str());
    for (const auto& edge : snet::routed_edges(topology)) {
      std::string line = "routed: " + edge.router + " <-";
      for (std::size_t i = 0; i < edge.producers.size(); ++i) {
        line += i == 0 ? " " : ", ";
        line += edge.producers[i];
      }
      std::printf("%s\n", line.c_str());
    }
    for (const auto& segment : snet::fused_segments(topology)) {
      std::string line = "fused: " + segment.front();
      for (std::size_t i = 1; i < segment.size(); ++i) {
        line += " -> ";
        line += segment[i];
      }
      std::printf("%s\n", line.c_str());
    }
    if (report.empty()) {
      std::printf("clean: no diagnostics\n");
    } else {
      std::fputs(report.to_string().c_str(), stdout);
    }

    if (!expect.empty()) {
      const std::vector<std::string> codes = split_codes(expect);
      if (codes.empty()) {
        return usage();
      }
      bool all_present = true;
      for (const auto& code : codes) {
        bool present = false;
        for (const auto& d : report.diagnostics) {
          if (code == snet::to_string(d.code)) {
            present = true;
            break;
          }
        }
        if (present) {
          std::printf("expected diagnostic [%s] present\n", code.c_str());
        } else {
          std::fprintf(stderr,
                       "snetlint: expected diagnostic [%s] NOT present\n",
                       code.c_str());
          all_present = false;
        }
      }
      return all_present ? 0 : 2;
    }
    if (report.has_errors()) {
      return 1;
    }
    return !report.empty() && strict ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snetlint: %s\n", e.what());
    return 3;
  }
}
