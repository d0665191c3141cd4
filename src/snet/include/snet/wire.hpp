#ifndef SNETSAC_SNET_WIRE_HPP
#define SNETSAC_SNET_WIRE_HPP

/// \file wire.hpp
/// The shape-indexed record wire format (spec: docs/WIRE_FORMAT.md).
///
/// Records leave the address space as `shape index + packed values`: the
/// stream carries each distinct label set once (a shape-table chunk listing
/// kinds + names, canonically ordered), after which every record of that
/// shape is a fixed-layout body — tag integers and length-prefixed field
/// payloads in shape order, no per-record label names. This is the dense
/// ShapeId idea of shapes.hpp made external: ids are *stream-local* (first
/// use assigns the next index), so a stream is self-contained and two
/// processes never need to agree on interning order.
///
/// Field payloads are opaque to S-Net, so the format cannot know their
/// layout; a process-wide `CodecRegistry` maps payload C++ types to named
/// codecs (built-ins cover SaC arrays and scalar payloads; clients register
/// their own). Det stamps and session ids ride along as hidden metadata,
/// exactly as they do in memory.
///
/// Three consumers:
///  * `WireWriter`/`WireReader` — streaming append + incremental decode;
///  * the snapshot/replay harness (`tools/snetrec`) —
///    record an InputPort stream during any run, replay it byte-identically;
///  * `SpillStore` — the disk half of `OverflowPolicy::Spill`: det
///    collectors and synchrocells serialize overflow records and restore
///    them on release, so a capped det region's interior stops being live
///    memory (see entities.hpp).

#include <any>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <vector>

#include "runtime/annotations.hpp"
#include "snet/record.hpp"

namespace snet::wire {

/// Malformed, truncated or undecodable stream data. The message always
/// names the offending construct (chunk tag, shape index, codec name...).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// --------------------------------------------------------------- codecs

/// One payload codec: encodes/decodes a specific C++ payload type held in
/// a field's `std::any`. `encode` appends the payload bytes to \p out;
/// `decode` rebuilds a Value from exactly those bytes.
struct Codec {
  std::string name;
  std::type_index type;
  std::function<void(const std::any&, std::string&)> encode;
  std::function<Value(const char*, std::size_t)> decode;
};

/// Process-wide codec table. Built-ins are registered on first use:
///   scalar:i32  int                scalar:i64  std::int64_t
///   scalar:f64  double             scalar:str  std::string
///   array:i32   sac::Array<int>    array:f64   sac::Array<double>
///   array:b8    sac::Array<bool>
/// Thread-safe; codecs are write-once (re-registering a name or type
/// throws — a codec is a wire contract, not a hook to swap at runtime).
class CodecRegistry {
 public:
  static CodecRegistry& instance();

  void add(Codec codec);
  /// Null when no codec covers the type / name.
  const Codec* by_type(std::type_index type) const;
  const Codec* by_name(std::string_view name) const;

 private:
  CodecRegistry();
  struct Impl;
  Impl* impl_;  // leaked intentionally, like ShapeRegistry
};

/// Registers a codec for payload type T with plain typed functions.
template <class T, class Enc, class Dec>
void register_codec(std::string name, Enc encode, Dec decode) {
  CodecRegistry::instance().add(Codec{
      std::move(name), std::type_index(typeid(T)),
      [encode](const std::any& a, std::string& out) {
        encode(*std::any_cast<T>(&a), out);
      },
      [decode](const char* data, std::size_t size) -> Value {
        return make_value<T>(decode(data, size));
      }});
}

// ------------------------------------------------------------ resolvers

/// How a reader turns serialized runtime metadata back into live pointers.
/// Cross-process readers (snapshots) leave these empty: det stamps then
/// reject decoding (a snapshot of an InputPort stream carries none) and
/// session ids resolve to null (records are re-stamped on injection).
/// In-process readers (SpillStore) resolve against the writer's side
/// tables, restoring pointer-exact stamps.
struct Resolvers {
  /// Maps a stream scope index (+ its recorded name) to the live scope.
  std::function<snet::DetScope*(std::uint32_t index, const std::string& name)>
      scope;
  /// Maps a serialized session id to the live session state.
  std::function<SessionState*(std::uint32_t id)> session;
};

// --------------------------------------------------------------- writer

namespace detail {
class Encoder;
struct ReadTables;
}  // namespace detail

/// Streaming writer: header on construction, then `record()` appends —
/// definition chunks (shapes, codecs, scopes) are emitted automatically
/// before their first use. `finish()` writes the end-of-stream marker; a stream without one reads
/// back as "possibly still growing" (see WireReader::at_clean_end).
class WireWriter {
 public:
  explicit WireWriter(std::ostream& out);
  ~WireWriter();

  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  /// Appends one record chunk (streaming mode).
  void record(const Record& r);
  /// Writes the end-of-stream chunk and flushes. Idempotent.
  void finish();

  std::uint64_t records_written() const { return records_; }

 private:
  std::ostream& out_;
  std::unique_ptr<detail::Encoder> enc_;
  std::uint64_t records_ = 0;
  bool finished_ = false;
};

// --------------------------------------------------------------- reader

/// Incremental decoder over a wire stream: `next()` yields records in
/// stream order, skipping chunks it does not know.
class WireReader {
 public:
  explicit WireReader(std::istream& in, Resolvers resolvers = {});
  ~WireReader();

  WireReader(const WireReader&) = delete;
  WireReader& operator=(const WireReader&) = delete;

  /// Next record in stream order; nullopt at end of stream (clean or at a
  /// chunk boundary — a stream being appended to simply has no next chunk
  /// yet). Throws WireError on malformed or truncated data.
  std::optional<Record> next();

  /// True once the end-of-stream marker was consumed. After next() has
  /// returned nullopt, false here means the stream stopped at a chunk
  /// boundary without a marker — truncated-or-growing, caller's policy.
  bool at_clean_end() const { return clean_end_; }

 private:
  friend class SpillStore;
  std::istream& in_;
  std::unique_ptr<detail::ReadTables> tables_;
  Resolvers resolvers_;
  bool clean_end_ = false;
  bool header_done_ = false;
};

/// Reads every record of a finished stream; throws WireError when the
/// stream lacks the end-of-stream marker (truncation guard for fixtures).
std::vector<Record> read_all(std::istream& in, Resolvers resolvers = {});

/// Encodes \p r as a self-contained single-record stream (its own header
/// and definitions). Canonical content key: two records with equal labels,
/// tags, payload bytes and metadata encode to equal strings regardless of
/// process interning order — snetrec sorts replay outputs by this.
std::string encode_standalone(const Record& r);

// ---------------------------------------------------------------- spill

/// Handle to one spilled record: where it lives in the spill file.
/// Holding a frame instead of a Record is the entire point — 12 bytes
/// in memory against the record's full payload.
struct SpillFrame {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

/// Disk backing for `OverflowPolicy::Spill` (one per Network, shared by
/// all det collectors and synchrocells; see docs/WIRE_FORMAT.md §Spill).
/// `spill()` serializes a record into the store's file and returns a
/// frame; `restore()` decodes it back with pointer-exact det stamps and
/// session identity, resolved against side tables the store maintains as
/// it writes (scope index → DetScope*, session id → SessionState*).
/// Restored-session liveness is the caller's invariant: a spilled record
/// is still counted live, which is exactly what keeps its SessionState
/// from being reclaimed. Thread-safe; the file is created lazily on first
/// spill and deleted on destruction.
class SpillStore {
 public:
  /// \p dir: directory for the spill file ("" = std::filesystem::
  /// temp_directory_path()). Nothing touches the filesystem until the
  /// first spill.
  explicit SpillStore(std::string dir);
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  SpillFrame spill(const Record& r);
  Record restore(const SpillFrame& frame);

  /// Observability: records currently on disk (spilled - restored) and
  /// total bytes ever written.
  std::int64_t on_disk() const;
  std::uint64_t bytes_written() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace snet::wire

#endif
