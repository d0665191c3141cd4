/// \file snetrec.cpp
/// Snapshot/replay harness over the record wire format (snet/wire.hpp,
/// spec in docs/WIRE_FORMAT.md). Three jobs:
///
///   record  — build the input stream a program run would inject, write it
///             to disk, run the program, and write the output stream too:
///             one command produces a complete fixture (inputs + expected
///             outputs) for hardware-independent replay.
///   replay  — load a recorded input stream, run the program on it, and
///             byte-compare the serialized outputs against the expected
///             stream. CI's proof that a run reproduces exactly.
///   dump    — human-readable listing of any .swire stream (including a
///             post-mortem look at a network's spill file).
///
/// Output streams are written in *canonical order*: records sorted by
/// their standalone encoding (wire::encode_standalone), which is
/// process-interning-independent. Worker scheduling may deliver outputs
/// in any order; the canonical sort makes the serialized stream — and so
/// the byte comparison — deterministic.
///
/// Exit codes: 0 success/match, 1 usage or I/O error, 2 replay mismatch,
/// 3 malformed stream (wire decode error).
///
/// Boxes bound for <program.snet> (same library as run_network):
///   computeOpts, solveOneLevelFig1, solveOneLevelK, solveOneLevelKL,
///   solve, propagate

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "snet/detscope.hpp"
#include "snet/lang.hpp"
#include "snet/wire.hpp"
#include "sudoku/corpus.hpp"
#include "sudoku/nets.hpp"
#include "sudoku/solver.hpp"

namespace {

constexpr const char* kUsage = R"(snetrec - record, replay and inspect S-Net record streams (.swire)

usage:
  snetrec record <program.snet> <puzzle-name> <inputs.swire> <outputs.swire>
      Build the program's input stream for the named corpus puzzle, write
      it to <inputs.swire>, run the program, and write the canonically
      ordered outputs to <outputs.swire>.

  snetrec replay <program.snet> <inputs.swire> <expected-outputs.swire>
      Run the program on the recorded inputs and byte-compare the
      serialized outputs with the expected stream.

  snetrec dump <stream.swire>
      List the records of a stream and whether it ends cleanly.

  snetrec --help
      This text.

exit codes: 0 success/match, 1 usage or I/O error, 2 replay mismatch,
            3 malformed stream
)";

void bind_both(snet::lang::Bindings& b, const std::string& name,
               const snet::Net& box_net) {
  b.bind_net(name, box_net);
  b.bind_box(name, box_net->fn);
}

snet::Net load_program(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream src;
  src << in.rdbuf();
  snet::lang::Bindings bindings;
  bind_both(bindings, "computeOpts", sudoku::compute_opts_box());
  bind_both(bindings, "solveOneLevelFig1", sudoku::solve_one_level_box());
  bind_both(bindings, "solveOneLevelK", sudoku::solve_one_level_k_box());
  bind_both(bindings, "solveOneLevelKL", sudoku::solve_one_level_kl_box());
  bind_both(bindings, "solve", sudoku::solve_box());
  bind_both(bindings, "propagate", sudoku::propagate_box());
  return snet::lang::parse_network_named(src.str(), bindings).topology;
}

std::vector<snet::Record> load_stream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return snet::wire::read_all(in);
}

/// Serializes \p records in canonical (standalone-encoding) order.
std::string encode_canonical(std::vector<snet::Record> records) {
  std::vector<std::pair<std::string, const snet::Record*>> keyed;
  keyed.reserve(records.size());
  for (const auto& r : records) {
    keyed.emplace_back(snet::wire::encode_standalone(r), &r);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream os(std::ios::binary);
  snet::wire::WireWriter w(os);
  for (const auto& [key, rec] : keyed) {
    w.record(*rec);
  }
  w.finish();
  return std::move(os).str();
}

/// Runs \p program on \p inputs and returns the canonically serialized
/// output stream.
std::string run_and_encode(const snet::Net& program,
                           const std::vector<snet::Record>& inputs) {
  snet::Network net(program);
  for (const auto& r : inputs) {
    net.input().inject(r);
  }
  return encode_canonical(net.output().collect());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

int cmd_record(const std::string& program_path, const std::string& puzzle,
               const std::string& inputs_path, const std::string& outputs_path) {
  const snet::Net program = load_program(program_path);
  const std::vector<snet::Record> inputs = {
      sudoku::board_record(sudoku::corpus_board(puzzle))};

  std::ostringstream is(std::ios::binary);
  snet::wire::WireWriter iw(is);
  for (const auto& r : inputs) {
    iw.record(r);
  }
  iw.finish();
  write_file(inputs_path, std::move(is).str());

  write_file(outputs_path, run_and_encode(program, inputs));
  std::cout << "recorded " << inputs.size() << " input record(s) to "
            << inputs_path << ", outputs to " << outputs_path << "\n";
  return 0;
}

int cmd_replay(const std::string& program_path, const std::string& inputs_path,
               const std::string& expected_path) {
  const snet::Net program = load_program(program_path);
  const std::vector<snet::Record> inputs = load_stream(inputs_path);

  std::ifstream exp(expected_path, std::ios::binary);
  if (!exp) {
    throw std::runtime_error("cannot open " + expected_path);
  }
  std::ostringstream eb(std::ios::binary);
  eb << exp.rdbuf();
  const std::string expected = std::move(eb).str();

  const std::string actual = run_and_encode(program, inputs);
  if (actual == expected) {
    std::cout << "replay ok: " << actual.size() << " bytes match "
              << expected_path << "\n";
    return 0;
  }
  std::size_t at = 0;
  while (at < actual.size() && at < expected.size() &&
         actual[at] == expected[at]) {
    ++at;
  }
  std::cerr << "replay MISMATCH: produced " << actual.size()
            << " bytes, expected " << expected.size()
            << "; first difference at byte " << at << "\n";
  return 2;
}

int cmd_dump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  // Det stamps in the stream (e.g. a network's spill file) resolve to
  // placeholder scopes: dump only displays, it never runs the records.
  snet::wire::Resolvers resolvers;
  resolvers.scope = [](std::uint32_t, const std::string& name) {
    static std::map<std::string, snet::DetScope*>* scopes =
        new std::map<std::string, snet::DetScope*>();
    auto [it, fresh] = scopes->try_emplace(name, nullptr);
    if (fresh) {
      it->second = new snet::DetScope(name);  // leaked; dump is one-shot
    }
    return it->second;
  };
  snet::wire::WireReader reader(in, std::move(resolvers));
  std::uint64_t n = 0;
  while (auto r = reader.next()) {
    std::cout << "record " << n++ << ": " << r->to_string();
    if (!r->det_stack().empty()) {
      std::cout << "  [det depth " << r->det_stack().size() << "]";
    }
    std::cout << "\n";
  }
  std::cout << n << " record(s), "
            << (reader.at_clean_end() ? "clean end" : "NO end marker — "
                                                      "truncated or still "
                                                      "being written")
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    std::cout << kUsage;
    return args.empty() ? 1 : 0;
  }
  try {
    if (args[0] == "record" && args.size() == 5) {
      return cmd_record(args[1], args[2], args[3], args[4]);
    }
    if (args[0] == "replay" && args.size() == 4) {
      return cmd_replay(args[1], args[2], args[3]);
    }
    if (args[0] == "dump" && args.size() == 2) {
      return cmd_dump(args[1]);
    }
    std::cerr << kUsage;
    return 1;
  } catch (const snet::wire::WireError& e) {
    std::cerr << "snetrec: malformed stream: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "snetrec: " << e.what() << "\n";
    return 1;
  }
}
