/// The shape-indexed record wire format (snet/wire.hpp, spec in
/// docs/WIRE_FORMAT.md): randomized round-trip property testing across
/// payload kinds (scalars, SaC arrays of rank 0–5) and hidden metadata
/// (det stamps, session stamps) with a bit-identity bar — decode followed
/// by re-encode must reproduce the original stream byte for byte — plus
/// the rejection side: truncated streams, corrupted headers and bodies,
/// and det stamps arriving without a scope resolver must all fail loudly
/// instead of yielding a subtly wrong record.

#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sacpp/array.hpp"
#include "snet/detscope.hpp"
#include "snet/network.hpp"
#include "snet/session.hpp"
#include "snet/wire.hpp"

using namespace snet;

namespace {

/// A live runtime context for metadata round-trips: det scopes the stamps
/// can point at and session states with known ids. The network exists only
/// so SessionState's constructor has the mutexes it aliases.
struct MetaWorld {
  MetaWorld()
      : net(box("id", "(x) -> (x)",
                [](const BoxInput& in, BoxOutput& out) {
                  out.out(1, in.field("x"));
                })),
        s7(net, 7, SessionOptions{}),
        s9(net, 9, SessionOptions{}) {
    scopes.push_back(std::make_unique<DetScope>("par_det/outer"));
    scopes.push_back(std::make_unique<DetScope>("par_det/inner"));
    scopes.push_back(std::make_unique<DetScope>("star_det"));
  }

  wire::Resolvers resolvers() {
    wire::Resolvers r;
    r.scope = [this](std::uint32_t, const std::string& name) -> DetScope* {
      for (const auto& s : scopes) {
        if (s->name() == name) {
          return s.get();
        }
      }
      return nullptr;
    };
    r.session = [this](std::uint32_t id) -> SessionState* {
      if (id == 7) {
        return &s7;
      }
      if (id == 9) {
        return &s9;
      }
      return nullptr;
    };
    return r;
  }

  Network net;
  SessionState s7;
  SessionState s9;
  std::vector<std::unique_ptr<DetScope>> scopes;
};

template <class T>
sac::Array<T> random_array(std::mt19937& rng, int rank) {
  std::vector<std::int64_t> dims;
  std::uniform_int_distribution<std::int64_t> extent(0, 3);
  for (int i = 0; i < rank; ++i) {
    dims.push_back(extent(rng));
  }
  const sac::Shape shape(std::move(dims));
  std::vector<T> data;
  std::uniform_int_distribution<int> val(-100, 100);
  for (std::int64_t i = 0; i < shape.element_count(); ++i) {
    data.push_back(static_cast<T>(val(rng)));
  }
  return sac::Array<T>(shape, std::move(data));
}

sac::Array<bool> random_bool_array(std::mt19937& rng, int rank) {
  std::vector<std::int64_t> dims;
  std::uniform_int_distribution<std::int64_t> extent(0, 3);
  for (int i = 0; i < rank; ++i) {
    dims.push_back(extent(rng));
  }
  const sac::Shape shape(std::move(dims));
  std::vector<bool> data;
  std::uniform_int_distribution<int> bit(0, 1);
  for (std::int64_t i = 0; i < shape.element_count(); ++i) {
    data.push_back(bit(rng) != 0);
  }
  return sac::Array<bool>(shape, std::move(data));
}

/// One random record drawing from every payload kind the built-in codecs
/// cover, with random label subsets (so the stream sees many shapes) and
/// random det/session metadata from \p world.
Record random_record(std::mt19937& rng, MetaWorld& world) {
  Record r;
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> rank(0, 5);
  std::uniform_int_distribution<int> ival(-1000000, 1000000);
  if (coin(rng) != 0) {
    r.set_field("i32", make_value<int>(ival(rng)));
  }
  if (coin(rng) != 0) {
    r.set_field("i64", make_value<std::int64_t>(
                           static_cast<std::int64_t>(ival(rng)) << 20));
  }
  if (coin(rng) != 0) {
    r.set_field("f64", make_value<double>(ival(rng) / 7.0));
  }
  if (coin(rng) != 0) {
    r.set_field("str", make_value<std::string>(
                           std::string("s\0with nul + ", 13) +
                           std::to_string(ival(rng))));
  }
  if (coin(rng) != 0) {
    r.set_field("ai", make_value<sac::Array<int>>(random_array<int>(rng, rank(rng))));
  }
  if (coin(rng) != 0) {
    r.set_field("ad", make_value<sac::Array<double>>(random_array<double>(rng, rank(rng))));
  }
  if (coin(rng) != 0) {
    r.set_field("ab", make_value<sac::Array<bool>>(random_bool_array(rng, rank(rng))));
  }
  if (coin(rng) != 0) {
    r.set_tag("k", ival(rng));
  }
  if (coin(rng) != 0) {
    r.set_tag("done", coin(rng));
  }
  // Det stamps: a random stack depth over the live scopes, bottom to top.
  const int depth = std::uniform_int_distribution<int>(0, 3)(rng);
  for (int d = 0; d < depth; ++d) {
    const auto idx = static_cast<std::size_t>(
        std::uniform_int_distribution<int>(0, 2)(rng));
    r.det_stack().push_back(DetStamp{
        world.scopes[idx].get(),
        static_cast<std::uint64_t>(std::uniform_int_distribution<int>(0, 1 << 20)(rng))});
  }
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 1: r.set_session(&world.s7); break;
    case 2: r.set_session(&world.s9); break;
    default: break;  // no session
  }
  return r;
}

std::string encode_stream(const std::vector<Record>& records) {
  std::ostringstream os(std::ios::binary);
  wire::WireWriter w(os);
  for (const auto& r : records) {
    w.record(r);
  }
  w.finish();
  return std::move(os).str();
}

}  // namespace

TEST(Wire, RandomizedRoundTripIsBitIdentical) {
  MetaWorld world;
  for (unsigned seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(seed);
    std::vector<Record> originals;
    for (int i = 0; i < 50; ++i) {
      originals.push_back(random_record(rng, world));
    }
    const std::string bytes = encode_stream(originals);

    std::istringstream in(bytes, std::ios::binary);
    const std::vector<Record> decoded = wire::read_all(in, world.resolvers());
    ASSERT_EQ(decoded.size(), originals.size()) << "seed " << seed;

    // Structural equality plus pointer-exact metadata...
    for (std::size_t i = 0; i < originals.size(); ++i) {
      const Record& a = originals[i];
      const Record& b = decoded[i];
      EXPECT_EQ(a.shape(), b.shape()) << "seed " << seed << " record " << i;
      EXPECT_EQ(a.session_state(), b.session_state())
          << "seed " << seed << " record " << i;
      ASSERT_EQ(a.det_stack().size(), b.det_stack().size());
      for (std::size_t d = 0; d < a.det_stack().size(); ++d) {
        EXPECT_EQ(a.det_stack()[d].scope, b.det_stack()[d].scope)
            << "det stamp lost pointer identity";
        EXPECT_EQ(a.det_stack()[d].seq, b.det_stack()[d].seq);
      }
      EXPECT_EQ(wire::encode_standalone(a), wire::encode_standalone(b))
          << "seed " << seed << " record " << i
          << ": canonical encodings diverge";
    }

    // ... and the bit-identity bar: re-encoding the decoded records must
    // reproduce the original stream exactly.
    EXPECT_EQ(encode_stream(decoded), bytes)
        << "seed " << seed << ": re-encode is not byte-identical";
  }
}

TEST(Wire, ArrayPayloadsSurviveExactly) {
  std::mt19937 rng(42);
  for (int rank = 0; rank <= 5; ++rank) {
    Record r;
    const auto arr = random_array<double>(rng, rank);
    r.set_field("a", make_value<sac::Array<double>>(arr));
    std::istringstream in(encode_stream({r}), std::ios::binary);
    const auto back = wire::read_all(in);
    ASSERT_EQ(back.size(), 1U);
    const auto& out = back[0].get<sac::Array<double>>("a");
    ASSERT_EQ(out.shape(), arr.shape()) << "rank " << rank;
    for (std::int64_t i = 0; i < arr.element_count(); ++i) {
      EXPECT_EQ(out.linear(i), arr.linear(i));
    }
  }
}

TEST(Wire, EmptyRecordAndEmptyStreamRoundTrip) {
  std::istringstream empty(encode_stream({}), std::ios::binary);
  EXPECT_TRUE(wire::read_all(empty).empty());

  std::istringstream one(encode_stream({Record{}}), std::ios::binary);
  const auto back = wire::read_all(one);
  ASSERT_EQ(back.size(), 1U);
  EXPECT_TRUE(back[0].empty());
}

TEST(Wire, EncodeStandaloneIgnoresConstructionOrder) {
  // Same content, different insertion orders: the canonical label ordering
  // (fields before tags, each name-sorted) must make the encodings equal.
  Record a;
  a.set_field("x", make_value<int>(1));
  a.set_field("b", make_value<int>(2));
  a.set_tag("t", 3);
  Record b;
  b.set_tag("t", 3);
  b.set_field("b", make_value<int>(2));
  b.set_field("x", make_value<int>(1));
  EXPECT_EQ(wire::encode_standalone(a), wire::encode_standalone(b));

  Record c = b;
  c.set_tag("t", 4);
  EXPECT_NE(wire::encode_standalone(a), wire::encode_standalone(c));
}

TEST(Wire, TruncationIsNeverSilent) {
  MetaWorld world;
  std::mt19937 rng(3);
  std::vector<Record> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(random_record(rng, world));
  }
  const std::string bytes = encode_stream(records);

  // read_all is the fixture loader: a stream without its end marker must
  // throw, whatever prefix survived.
  for (std::size_t cut : {bytes.size() - 1, bytes.size() - 7, bytes.size() / 2,
                          bytes.size() / 3, std::size_t{13}, std::size_t{1}}) {
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    EXPECT_THROW(wire::read_all(in, world.resolvers()), wire::WireError)
        << "cut at " << cut << " of " << bytes.size();
  }

  // The incremental reader distinguishes mid-chunk truncation (WireError)
  // from a clean chunk boundary without a marker (nullopt, !at_clean_end —
  // the "still being written" case). Neither may report a clean end.
  for (std::size_t cut = 12; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    wire::WireReader reader(in, world.resolvers());
    bool threw = false;
    try {
      while (reader.next()) {
      }
    } catch (const wire::WireError&) {
      threw = true;
    }
    EXPECT_TRUE(threw || !reader.at_clean_end())
        << "truncation at " << cut << " read back as a clean end";
  }
}

TEST(Wire, CorruptionIsRejected) {
  Record r;
  r.set_field("x", make_value<int>(5));
  r.set_tag("k", 1);
  const std::string good = encode_stream({r});

  const auto expect_reject = [](std::string bytes, const char* what) {
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(wire::read_all(in), wire::WireError) << what;
  };

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_reject(bad_magic, "corrupt magic accepted");

  std::string bad_version = good;
  bad_version[8] = '\x7f';
  expect_reject(bad_version, "unknown major version accepted");

  std::string bad_flags = good;
  bad_flags[10] = '\x01';
  expect_reject(bad_flags, "unknown header flags accepted");

  expect_reject(std::string("SNET"), "short header accepted");
  expect_reject(std::string(), "empty stream accepted by read_all");

  // A chunk whose declared length overruns the stream.
  std::string overrun = good;
  overrun[13] = '\xff';  // chunk length of the first definition chunk
  overrun[14] = '\xff';
  expect_reject(overrun, "overrunning chunk length accepted");
}

TEST(Wire, DetStampsRequireAScopeResolver) {
  DetScope scope("lonely");
  Record r;
  r.set_field("x", make_value<int>(1));
  r.det_stack().push_back(DetStamp{&scope, 4});
  const std::string bytes = encode_stream({r});
  std::istringstream in(bytes, std::ios::binary);
  // Cross-process readers have no live scopes: decoding a det-stamped
  // record without a resolver must fail, not fabricate a dangling stamp.
  EXPECT_THROW(wire::read_all(in), wire::WireError);
}

TEST(Wire, UnknownChunkTagsAreSkipped) {
  Record r;
  r.set_field("x", make_value<int>(99));
  const std::string good = encode_stream({r});

  // Splice an unknown chunk right after the 12-byte header, 4-byte
  // payload: a future tag (0x60) and the reserved tag 0x05, which once
  // framed record groups. Readers must skip both unharmed.
  for (const char tag : {'\x60', '\x05'}) {
    std::string spliced = good.substr(0, 12);
    spliced += tag;
    spliced += std::string("\x04\x00\x00\x00", 4);
    spliced += "beef";
    spliced += good.substr(12);

    std::istringstream in(spliced, std::ios::binary);
    const auto back = wire::read_all(in);
    ASSERT_EQ(back.size(), 1U) << "tag " << int(tag);
    EXPECT_EQ(back[0].get<int>("x"), 99);
  }
}

TEST(Wire, UnregisteredPayloadTypeFailsOnWrite) {
  struct Opaque {
    int v;
  };
  Record r;
  r.set_field("mystery", make_value<Opaque>(Opaque{1}));
  std::ostringstream os(std::ios::binary);
  wire::WireWriter w(os);
  EXPECT_THROW(w.record(r), wire::WireError);
}
