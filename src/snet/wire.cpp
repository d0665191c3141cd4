#include "snet/wire.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

#include "sacpp/array.hpp"
#include "snet/detscope.hpp"
#include "snet/session.hpp"

namespace snet::wire {

// The format is little-endian on the wire; the encoder memcpy-appends
// native integers, which is only correct on a little-endian host. Every
// deployment target of this runtime (x86-64, AArch64 Linux) is LE; a
// big-endian port would swap in the put/get helpers below, not change the
// format.
static_assert(std::endian::native == std::endian::little,
              "wire.cpp assumes a little-endian host");

namespace {

// ------------------------------------------------------------ constants

constexpr char kMagic[8] = {'S', 'N', 'E', 'T', 'W', 'I', 'R', 'E'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderSize = 12;  // magic + version + flags

// Chunk tags (see docs/WIRE_FORMAT.md). Unknown tags are skippable by
// construction — every chunk is length-prefixed.
enum ChunkTag : std::uint8_t {
  kShapeDef = 0x01,
  kCodecDef = 0x02,
  kScopeDef = 0x03,
  kRecord = 0x04,
  // 0x05 is reserved (docs/WIRE_FORMAT.md §5): readers skip it as unknown.
  kEnd = 0x7F,
};

constexpr std::size_t kChunkHeaderSize = 5;  // u8 tag + u32 length

// "record belongs to no session" (a null session_state()). Id 0 is taken:
// the default session is a real SessionState with id 0.
constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;

// ----------------------------------------------------------- primitives

template <class T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_bytes(std::string& out, const void* p, std::size_t n) {
  if (n != 0) {  // an empty buffer may hand us data() == nullptr
    out.append(static_cast<const char*>(p), n);
  }
}

void put_chunk(std::string& out, std::uint8_t tag, const std::string& payload) {
  if (payload.size() > 0xFFFFFFFFull) {
    throw WireError("chunk payload exceeds the 4 GiB frame bound");
  }
  put<std::uint8_t>(out, tag);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
}

/// Bounds-checked read cursor over one chunk payload (or array payload).
/// Every under-run throws a WireError naming what was being read.
struct Cursor {
  const char* p;
  const char* end;
  const char* context;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  void need(std::size_t n, const char* item) const {
    if (remaining() < n) {
      throw WireError(std::string("truncated ") + context + ": " + item +
                      " needs " + std::to_string(n) + " bytes, " +
                      std::to_string(remaining()) + " left");
    }
  }

  template <class T>
  T get(const char* item) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), item);
    T v;
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    return v;
  }

  std::string get_string(std::size_t n, const char* item) {
    need(n, item);
    std::string s(p, n);
    p += n;
    return s;
  }

  void done() const {
    if (p != end) {
      throw WireError(std::string("malformed ") + context + ": " +
                      std::to_string(remaining()) + " trailing bytes");
    }
  }
};

/// A shape's labels in wire-canonical order: fields before tags, each
/// group sorted by name bytes. Interned label *ids* are process-local
/// (assigned in interning order), so the wire must not depend on them —
/// name order makes the same logical record encode to the same bytes in
/// every process.
std::vector<Label> canonical_labels(ShapeId id) {
  auto labels = ShapeRegistry::instance().labels(id);
  std::sort(labels.begin(), labels.end(), [](Label a, Label b) {
    if (a.kind != b.kind) {
      return a.kind < b.kind;
    }
    return label_name(a) < label_name(b);
  });
  return labels;
}

// --------------------------------------------------------------- codecs

template <class T>
struct ElemTraits;
template <>
struct ElemTraits<int> {
  static_assert(sizeof(int) == 4, "wire codec array:i32 assumes 32-bit int");
};
template <>
struct ElemTraits<double> {
  static_assert(sizeof(double) == 8);
};
template <>
struct ElemTraits<bool> {};  // stored as one byte (sac::detail::storage_t)

template <class T>
void encode_array(const sac::Array<T>& a, std::string& out) {
  (void)sizeof(ElemTraits<T>);
  const sac::Shape& shape = a.shape();
  if (shape.rank() > 255) {
    throw WireError("array rank " + std::to_string(shape.rank()) +
                    " exceeds the wire bound of 255");
  }
  put<std::uint8_t>(out, static_cast<std::uint8_t>(shape.rank()));
  for (int axis = 0; axis < shape.rank(); ++axis) {
    put<std::int64_t>(out, shape.extent(axis));
  }
  const auto& buf = a.data();
  using Storage = typename sac::Array<T>::storage_type;
  const std::uint64_t nbytes =
      static_cast<std::uint64_t>(buf.size()) * sizeof(Storage);
  put<std::uint64_t>(out, nbytes);
  put_bytes(out, buf.data(), static_cast<std::size_t>(nbytes));
}

template <class T>
sac::Array<T> decode_array(const char* data, std::size_t size) {
  Cursor cur{data, data + size, "array payload"};
  const auto rank = cur.get<std::uint8_t>("rank");
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) {
    d = cur.get<std::int64_t>("extent");
    if (d < 0) {
      throw WireError("array extent " + std::to_string(d) + " is negative");
    }
  }
  sac::Shape shape(std::move(dims));
  const auto nbytes = cur.get<std::uint64_t>("element buffer length");
  using Storage = typename sac::Array<T>::storage_type;
  // Rank-0 scalars store one element, like the in-memory representation.
  const std::uint64_t count =
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          shape.is_scalar() ? 1 : shape.element_count(), 0));
  if (nbytes != count * sizeof(Storage)) {
    throw WireError("array element buffer is " + std::to_string(nbytes) +
                    " bytes, shape " + shape.to_string() + " needs " +
                    std::to_string(count * sizeof(Storage)));
  }
  cur.need(static_cast<std::size_t>(nbytes), "element buffer");
  typename sac::Array<T>::buffer_type buf(static_cast<std::size_t>(count));
  if (nbytes != 0) {  // data() of a 0-extent buffer may be nullptr
    std::memcpy(buf.data(), cur.p, static_cast<std::size_t>(nbytes));
  }
  cur.p += nbytes;
  cur.done();
  return sac::Array<T>(std::move(shape), std::move(buf));
}

template <class T, class Enc, class Dec>
Codec typed_codec(std::string name, Enc encode, Dec decode) {
  return Codec{std::move(name), std::type_index(typeid(T)),
               [encode](const std::any& a, std::string& out) {
                 encode(*std::any_cast<T>(&a), out);
               },
               [decode](const char* data, std::size_t size) -> Value {
                 return make_value<T>(decode(data, size));
               }};
}

}  // namespace

// -------------------------------------------------------- CodecRegistry

struct CodecRegistry::Impl {
  mutable std::shared_mutex mu;
  std::vector<std::unique_ptr<Codec>> codecs;
  std::unordered_map<std::type_index, const Codec*> by_type;
  std::map<std::string, const Codec*, std::less<>> by_name;
};

CodecRegistry& CodecRegistry::instance() {
  static CodecRegistry* reg = new CodecRegistry();  // leaked, like shapes
  return *reg;
}

CodecRegistry::CodecRegistry() : impl_(new Impl()) {
  add(typed_codec<std::int64_t>(
      "scalar:i64",
      [](std::int64_t v, std::string& out) { put<std::int64_t>(out, v); },
      [](const char* d, std::size_t n) {
        Cursor cur{d, d + n, "scalar:i64 payload"};
        auto v = cur.get<std::int64_t>("value");
        cur.done();
        return v;
      }));
  add(typed_codec<int>(
      "scalar:i32", [](int v, std::string& out) { put<std::int32_t>(out, v); },
      [](const char* d, std::size_t n) {
        Cursor cur{d, d + n, "scalar:i32 payload"};
        auto v = cur.get<std::int32_t>("value");
        cur.done();
        return static_cast<int>(v);
      }));
  add(typed_codec<double>(
      "scalar:f64", [](double v, std::string& out) { put<double>(out, v); },
      [](const char* d, std::size_t n) {
        Cursor cur{d, d + n, "scalar:f64 payload"};
        auto v = cur.get<double>("value");
        cur.done();
        return v;
      }));
  add(typed_codec<std::string>(
      "scalar:str",
      [](const std::string& v, std::string& out) { out += v; },
      [](const char* d, std::size_t n) { return std::string(d, n); }));
  add(typed_codec<sac::Array<int>>("array:i32", encode_array<int>,
                                   decode_array<int>));
  add(typed_codec<sac::Array<double>>("array:f64", encode_array<double>,
                                      decode_array<double>));
  add(typed_codec<sac::Array<bool>>("array:b8", encode_array<bool>,
                                    decode_array<bool>));
}

void CodecRegistry::add(Codec codec) {
  const std::unique_lock lock(impl_->mu);
  if (impl_->by_name.count(codec.name) != 0) {
    throw WireError("codec '" + codec.name + "' is already registered");
  }
  if (impl_->by_type.count(codec.type) != 0) {
    throw WireError("a codec for payload type " +
                    std::string(codec.type.name()) +
                    " is already registered");
  }
  impl_->codecs.push_back(std::make_unique<Codec>(std::move(codec)));
  const Codec* c = impl_->codecs.back().get();
  impl_->by_type.emplace(c->type, c);
  impl_->by_name.emplace(c->name, c);
}

const Codec* CodecRegistry::by_type(std::type_index type) const {
  const std::shared_lock lock(impl_->mu);
  auto it = impl_->by_type.find(type);
  return it == impl_->by_type.end() ? nullptr : it->second;
}

const Codec* CodecRegistry::by_name(std::string_view name) const {
  const std::shared_lock lock(impl_->mu);
  auto it = impl_->by_name.find(name);
  return it == impl_->by_name.end() ? nullptr : it->second;
}

// ------------------------------------------------------------- encoding

namespace detail {

/// Stream-local decode tables: index → meaning, in definition order.
struct ReadTables {
  struct ShapeEntry {
    std::vector<Label> labels;  // wire-canonical order
    ShapeRef ref;
  };
  std::vector<ShapeEntry> shapes;
  std::vector<const Codec*> codecs;
  std::vector<std::string> scope_names;
};

/// Stream-local encode state: assigns dense indices to shapes, codecs and
/// det scopes on first use and emits their definition chunks. Optionally
/// mirrors every definition into a ReadTables so an in-process reader
/// (SpillStore) can decode without re-parsing its own definitions.
class Encoder {
 public:
  explicit Encoder(ReadTables* mirror = nullptr) : mirror_(mirror) {}

  /// Encodes the record *body* into \p body, appending any definition
  /// chunks the body newly depends on to \p defs.
  void record_body(const Record& r, std::string& defs, std::string& body) {
    const std::uint32_t si = shape_index(r.shape(), defs);
    put<std::uint32_t>(body, si);

    SessionState* session = r.session_state();
    std::uint32_t sid = kNoSession;
    if (session != nullptr) {
      sid = session->id();
      if (sid == kNoSession) {
        throw WireError("session id collides with the no-session sentinel");
      }
      sessions_[sid] = session;
    }
    put<std::uint32_t>(body, sid);

    const auto& det = r.det_stack();
    if (det.size() > 0xFFFF) {
      throw WireError("det stack depth " + std::to_string(det.size()) +
                      " exceeds the wire bound of 65535");
    }
    put<std::uint16_t>(body, static_cast<std::uint16_t>(det.size()));
    for (const DetStamp& stamp : det) {
      put<std::uint32_t>(body, scope_index(stamp.scope, defs));
      put<std::uint64_t>(body, stamp.seq);
    }

    for (const Label label : shape_labels(si)) {
      if (label.kind == LabelKind::Tag) {
        put<std::int64_t>(body, r.tag(label));
        continue;
      }
      const Value& v = r.field(label);
      if (!v || !v->has_value()) {
        throw WireError("field '" + label_name(label) +
                        "' holds no value; cannot encode");
      }
      const Codec* codec = CodecRegistry::instance().by_type(v->type());
      if (codec == nullptr) {
        throw WireError("no codec registered for field '" +
                        label_name(label) + "' payload type " +
                        v->type().name());
      }
      put<std::uint16_t>(body, codec_index(codec, defs));
      std::string payload;
      codec->encode(*v, payload);
      if (payload.size() > 0xFFFFFFFFull) {
        throw WireError("field '" + label_name(label) +
                        "' payload exceeds the 4 GiB frame bound");
      }
      put<std::uint32_t>(body, static_cast<std::uint32_t>(payload.size()));
      body += payload;
    }
  }

  void record_chunk(const Record& r, std::string& out) {
    std::string defs;
    std::string body;
    record_body(r, defs, body);
    out += defs;
    put_chunk(out, kRecord, body);
  }

  // In-process side tables for pointer-exact restore (SpillStore).
  DetScope* scope_ptr(std::uint32_t index) const {
    return index < scope_ptrs_.size() ? scope_ptrs_[index] : nullptr;
  }
  SessionState* session_ptr(std::uint32_t id) const {
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
  }

 private:
  std::uint32_t shape_index(ShapeId shape, std::string& defs) {
    auto it = shapes_.find(shape);
    if (it != shapes_.end()) {
      return it->second;
    }
    auto labels = canonical_labels(shape);
    std::string payload;
    put<std::uint32_t>(payload, static_cast<std::uint32_t>(labels.size()));
    for (const Label label : labels) {
      const std::string& name = label_name(label);
      if (name.size() > 0xFFFF) {
        throw WireError("label name longer than 65535 bytes");
      }
      put<std::uint8_t>(payload, static_cast<std::uint8_t>(label.kind));
      put<std::uint16_t>(payload, static_cast<std::uint16_t>(name.size()));
      payload += name;
    }
    put_chunk(defs, kShapeDef, payload);
    const auto index = static_cast<std::uint32_t>(shapes_.size());
    shapes_.emplace(shape, index);
    shape_labels_.push_back(std::move(labels));
    if (mirror_ != nullptr) {
      mirror_->shapes.push_back(
          {shape_labels_.back(), ShapeRef{shape, ShapeRegistry::instance().mask(shape)}});
    }
    return index;
  }

  const std::vector<Label>& shape_labels(std::uint32_t index) const {
    return shape_labels_[index];
  }

  std::uint16_t codec_index(const Codec* codec, std::string& defs) {
    auto it = codecs_.find(codec);
    if (it != codecs_.end()) {
      return it->second;
    }
    std::string payload;
    put<std::uint16_t>(payload, static_cast<std::uint16_t>(codec->name.size()));
    payload += codec->name;
    put_chunk(defs, kCodecDef, payload);
    if (codecs_.size() > 0xFFFF) {
      throw WireError("stream defines more than 65536 codecs");
    }
    const auto index = static_cast<std::uint16_t>(codecs_.size());
    codecs_.emplace(codec, index);
    if (mirror_ != nullptr) {
      mirror_->codecs.push_back(codec);
    }
    return index;
  }

  std::uint32_t scope_index(DetScope* scope, std::string& defs) {
    auto it = scopes_.find(scope);
    if (it != scopes_.end()) {
      return it->second;
    }
    const std::string& name = scope->name();
    std::string payload;
    put<std::uint16_t>(payload, static_cast<std::uint16_t>(
                                    std::min<std::size_t>(name.size(), 0xFFFF)));
    payload += name.substr(0, 0xFFFF);
    put_chunk(defs, kScopeDef, payload);
    const auto index = static_cast<std::uint32_t>(scopes_.size());
    scopes_.emplace(scope, index);
    scope_ptrs_.push_back(scope);
    if (mirror_ != nullptr) {
      mirror_->scope_names.push_back(name);
    }
    return index;
  }

  ReadTables* mirror_;
  std::unordered_map<ShapeId, std::uint32_t> shapes_;
  std::vector<std::vector<Label>> shape_labels_;  // parallel to shape index
  std::unordered_map<const Codec*, std::uint16_t> codecs_;
  std::unordered_map<DetScope*, std::uint32_t> scopes_;
  std::vector<DetScope*> scope_ptrs_;
  std::unordered_map<std::uint32_t, SessionState*> sessions_;
};

}  // namespace detail

namespace {

void put_header(std::string& out) {
  put_bytes(out, kMagic, sizeof kMagic);
  put<std::uint16_t>(out, kVersion);
  put<std::uint16_t>(out, 0);  // flags: none defined in version 1
}

// ------------------------------------------------------------- decoding

using detail::ReadTables;

/// Decodes one record body against the stream's tables.
Record decode_record_body(const char* data, std::size_t size,
                          const ReadTables& tables,
                          const Resolvers& resolvers) {
  Cursor cur{data, data + size, "record body"};
  const auto shape_index = cur.get<std::uint32_t>("shape index");
  if (shape_index >= tables.shapes.size()) {
    throw WireError("record references undefined shape index " +
                    std::to_string(shape_index) + " (stream defines " +
                    std::to_string(tables.shapes.size()) + ")");
  }
  const ReadTables::ShapeEntry& entry = tables.shapes[shape_index];

  const auto session_id = cur.get<std::uint32_t>("session id");
  SessionState* session = nullptr;
  if (session_id != kNoSession && resolvers.session) {
    session = resolvers.session(session_id);
  }
  // No resolver: a cross-process reader drops session identity — the
  // record is re-stamped when it crosses an InputPort again.

  const auto det_count = cur.get<std::uint16_t>("det stamp count");
  std::vector<DetStamp> det;
  det.reserve(det_count);
  for (std::uint16_t i = 0; i < det_count; ++i) {
    const auto scope_index = cur.get<std::uint32_t>("det scope index");
    const auto seq = cur.get<std::uint64_t>("det sequence");
    if (scope_index >= tables.scope_names.size()) {
      throw WireError("det stamp references undefined scope index " +
                      std::to_string(scope_index));
    }
    if (!resolvers.scope) {
      throw WireError(
          "stream carries det stamps but the reader has no scope resolver "
          "(scope '" + tables.scope_names[scope_index] + "')");
    }
    DetScope* scope =
        resolvers.scope(scope_index, tables.scope_names[scope_index]);
    if (scope == nullptr) {
      throw WireError("scope resolver returned null for scope '" +
                      tables.scope_names[scope_index] + "'");
    }
    det.push_back(DetStamp{scope, seq});
  }

  std::vector<std::pair<Label, Value>> fields;
  std::vector<std::pair<Label, std::int64_t>> tags;
  for (const Label label : entry.labels) {
    if (label.kind == LabelKind::Tag) {
      tags.emplace_back(label, cur.get<std::int64_t>("tag value"));
      continue;
    }
    const auto codec_index = cur.get<std::uint16_t>("codec index");
    if (codec_index >= tables.codecs.size()) {
      throw WireError("field '" + label_name(label) +
                      "' references undefined codec index " +
                      std::to_string(codec_index));
    }
    const auto len = cur.get<std::uint32_t>("field payload length");
    cur.need(len, "field payload");
    const Codec* codec = tables.codecs[codec_index];
    Value v;
    try {
      v = codec->decode(cur.p, len);
    } catch (const WireError&) {
      throw;
    } catch (const std::exception& e) {
      throw WireError("codec '" + codec->name + "' failed to decode field '" +
                      label_name(label) + "': " + e.what());
    }
    cur.p += len;
    fields.emplace_back(label, std::move(v));
  }
  cur.done();

  // Wire order is canonical (by name); the in-memory invariant is sorted
  // by interned label. Re-sort — cheap, label count is small.
  std::sort(fields.begin(), fields.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(tags.begin(), tags.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Record r = Record::assemble(std::move(fields), std::move(tags), entry.ref);
  r.det_stack() = std::move(det);
  r.set_session(session);
  return r;
}

/// Parses one definition chunk into the tables. Returns false when the
/// tag is not a definition chunk.
bool apply_definition(std::uint8_t tag, const std::string& payload,
                      ReadTables& tables) {
  switch (tag) {
    case kShapeDef: {
      Cursor cur{payload.data(), payload.data() + payload.size(),
                 "shape definition"};
      const auto count = cur.get<std::uint32_t>("label count");
      std::vector<Label> labels;
      labels.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto kind = cur.get<std::uint8_t>("label kind");
        if (kind > 1) {
          throw WireError("unknown label kind " + std::to_string(kind) +
                          " in shape definition");
        }
        const auto len = cur.get<std::uint16_t>("label name length");
        const std::string name = cur.get_string(len, "label name");
        labels.push_back(kind == 0 ? field_label(name) : tag_label(name));
      }
      cur.done();
      const ShapeRef ref = ShapeRegistry::instance().intern(labels);
      tables.shapes.push_back({std::move(labels), ref});
      return true;
    }
    case kCodecDef: {
      Cursor cur{payload.data(), payload.data() + payload.size(),
                 "codec definition"};
      const auto len = cur.get<std::uint16_t>("codec name length");
      const std::string name = cur.get_string(len, "codec name");
      cur.done();
      const Codec* codec = CodecRegistry::instance().by_name(name);
      if (codec == nullptr) {
        throw WireError("stream uses unknown codec '" + name +
                        "' — register it before decoding");
      }
      tables.codecs.push_back(codec);
      return true;
    }
    case kScopeDef: {
      Cursor cur{payload.data(), payload.data() + payload.size(),
                 "scope definition"};
      const auto len = cur.get<std::uint16_t>("scope name length");
      std::string name = cur.get_string(len, "scope name");
      cur.done();
      tables.scope_names.push_back(std::move(name));
      return true;
    }
    default:
      return false;
  }
}

void check_header(std::istream& in) {
  char buf[kHeaderSize];
  in.read(buf, sizeof buf);
  if (in.gcount() != static_cast<std::streamsize>(sizeof buf)) {
    throw WireError("truncated stream: header needs 12 bytes");
  }
  if (std::memcmp(buf, kMagic, sizeof kMagic) != 0) {
    throw WireError("bad magic: not a SNETWIRE stream");
  }
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  std::memcpy(&version, buf + 8, 2);
  std::memcpy(&flags, buf + 10, 2);
  if (version != kVersion) {
    throw WireError("unsupported wire version " + std::to_string(version) +
                    " (reader supports " + std::to_string(kVersion) + ")");
  }
  if (flags != 0) {
    throw WireError("unknown header flags 0x" + std::to_string(flags) +
                    "; refusing to guess");
  }
}

}  // namespace

// ----------------------------------------------------------- WireWriter

WireWriter::WireWriter(std::ostream& out)
    : out_(out), enc_(std::make_unique<detail::Encoder>()) {
  std::string header;
  put_header(header);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out_) {
    throw WireError("failed to write stream header");
  }
}

WireWriter::~WireWriter() { out_.flush(); }

namespace {
std::uint64_t write_all(std::ostream& out, const std::string& buf) {
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) {
    throw WireError("stream write failed (" + std::to_string(buf.size()) +
                    " bytes)");
  }
  return buf.size();
}
}  // namespace

void WireWriter::record(const Record& r) {
  if (finished_) {
    throw WireError("record() after finish()");
  }
  std::string buf;
  enc_->record_chunk(r, buf);
  write_all(out_, buf);
  ++records_;
}

void WireWriter::finish() {
  if (finished_) {
    return;
  }
  std::string buf;
  put_chunk(buf, kEnd, std::string());
  write_all(out_, buf);
  out_.flush();
  finished_ = true;
}

// ----------------------------------------------------------- WireReader

WireReader::WireReader(std::istream& in, Resolvers resolvers)
    : in_(in),
      tables_(std::make_unique<detail::ReadTables>()),
      resolvers_(std::move(resolvers)) {}

WireReader::~WireReader() = default;

namespace {

/// One chunk read from the stream, or nothing at a clean chunk boundary.
struct RawChunk {
  std::uint8_t tag = 0;
  std::string payload;
};

std::optional<RawChunk> read_chunk(std::istream& in) {
  RawChunk chunk;
  const auto pos = in.tellg();
  char hdr[kChunkHeaderSize];
  in.read(hdr, sizeof hdr);
  const auto got = in.gcount();
  if (got == 0) {
    // Chunk boundary: end of data so far. Clear eofbit so a growing
    // stream can be polled again.
    in.clear();
    if (pos != std::streampos(-1)) {
      in.seekg(pos);
    }
    return std::nullopt;
  }
  if (got < static_cast<std::streamsize>(sizeof hdr)) {
    throw WireError("truncated chunk header: got " + std::to_string(got) +
                    " of 5 bytes");
  }
  chunk.tag = static_cast<std::uint8_t>(hdr[0]);
  std::uint32_t len = 0;
  std::memcpy(&len, hdr + 1, 4);
  chunk.payload.resize(len);
  if (len != 0) {
    in.read(chunk.payload.data(), len);
    if (in.gcount() != static_cast<std::streamsize>(len)) {
      throw WireError("truncated chunk payload: tag 0x" +
                      std::to_string(chunk.tag) + " declares " +
                      std::to_string(len) + " bytes, got " +
                      std::to_string(in.gcount()));
    }
  }
  return chunk;
}

}  // namespace

std::optional<Record> WireReader::next() {
  if (clean_end_) {
    return std::nullopt;
  }
  if (!header_done_) {
    check_header(in_);
    header_done_ = true;
  }
  for (;;) {
    auto chunk = read_chunk(in_);
    if (!chunk) {
      return std::nullopt;
    }
    if (apply_definition(chunk->tag, chunk->payload, *tables_)) {
      continue;
    }
    switch (chunk->tag) {
      case kRecord:
        return decode_record_body(chunk->payload.data(),
                                  chunk->payload.size(), *tables_,
                                  resolvers_);
      case kEnd:
        if (!chunk->payload.empty()) {
          throw WireError("end-of-stream chunk carries a payload");
        }
        clean_end_ = true;
        return std::nullopt;
      default:
        // Forward compatibility: unknown chunk tags are length-prefixed
        // and skippable by design.
        continue;
    }
  }
}

std::vector<Record> read_all(std::istream& in, Resolvers resolvers) {
  WireReader reader(in, std::move(resolvers));
  std::vector<Record> out;
  while (auto r = reader.next()) {
    out.push_back(std::move(*r));
  }
  if (!reader.at_clean_end()) {
    throw WireError(
        "stream ended without the end-of-stream marker (truncated or still "
        "being written)");
  }
  return out;
}

std::string encode_standalone(const Record& r) {
  std::ostringstream os(std::ios::binary);
  WireWriter w(os);
  w.record(r);
  w.finish();
  return std::move(os).str();
}

// ------------------------------------------------------------ SpillStore

struct SpillStore::Impl {
  explicit Impl(std::string d) : dir(std::move(d)), enc(&tables) {}

  std::string dir;

  /// Leaf in the lock order (like DetScope::mu_): nothing is acquired
  /// while held — encoding, file I/O and the side tables all live inside.
  mutable snetsac::runtime::Mutex mu;
  std::fstream file SNETSAC_GUARDED_BY(mu);
  std::filesystem::path path SNETSAC_GUARDED_BY(mu);
  bool open SNETSAC_GUARDED_BY(mu) = false;
  std::uint64_t end_offset SNETSAC_GUARDED_BY(mu) = 0;
  detail::ReadTables tables SNETSAC_GUARDED_BY(mu);
  // Guarded by mu in practice; unannotated because restore()'s resolver
  // lambdas read it and the static analysis cannot see the caller's lock
  // through a std::function boundary.
  detail::Encoder enc;

  std::atomic<std::int64_t> on_disk{0};
  std::atomic<std::uint64_t> bytes{0};

  void ensure_open() SNETSAC_REQUIRES(mu) {
    if (open) {
      return;
    }
    namespace fs = std::filesystem;
    static std::atomic<unsigned> counter{0};
    const fs::path base = dir.empty() ? fs::temp_directory_path()
                                      : fs::path(dir);
    fs::create_directories(base);
    path = base / ("snetsac-spill-" + std::to_string(::getpid()) + "-" +
                   std::to_string(counter.fetch_add(1)) + ".swire");
    file.open(path, std::ios::in | std::ios::out | std::ios::trunc |
                        std::ios::binary);
    if (!file) {
      throw WireError("cannot create spill file " + path.string());
    }
    // A spill file is a valid wire stream (header + def/record chunks), so
    // `snetrec dump` can inspect one post mortem.
    std::string header;
    put_header(header);
    file.write(header.data(), static_cast<std::streamsize>(header.size()));
    end_offset = header.size();
    open = true;
  }
};

SpillStore::SpillStore(std::string dir)
    : impl_(std::make_unique<Impl>(std::move(dir))) {}

SpillStore::~SpillStore() {
  const snetsac::runtime::MutexLock lock(impl_->mu);
  if (impl_->open) {
    impl_->file.close();
    std::error_code ec;
    std::filesystem::remove(impl_->path, ec);  // best effort
  }
}

SpillFrame SpillStore::spill(const Record& r) {
  const snetsac::runtime::MutexLock lock(impl_->mu);
  impl_->ensure_open();
  std::string defs;
  std::string body;
  impl_->enc.record_body(r, defs, body);
  if (body.size() > 0xFFFFFFFFull) {
    throw WireError("spilled record body exceeds the 4 GiB frame bound");
  }
  std::string buf = std::move(defs);
  put_chunk(buf, kRecord, body);

  impl_->file.clear();
  impl_->file.seekp(static_cast<std::streamoff>(impl_->end_offset));
  impl_->file.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  // Flushed per record so the file is always a walkable wire stream for
  // outside readers (snetrec dump during a hang, post-mortem after a
  // crash) — an unflushed tail would truncate mid-chunk.
  impl_->file.flush();
  if (!impl_->file) {
    throw WireError("spill write failed at offset " +
                    std::to_string(impl_->end_offset));
  }
  const SpillFrame frame{
      impl_->end_offset + (buf.size() - body.size()),
      static_cast<std::uint32_t>(body.size())};
  impl_->end_offset += buf.size();
  impl_->bytes.fetch_add(buf.size(), std::memory_order_relaxed);
  impl_->on_disk.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

Record SpillStore::restore(const SpillFrame& frame) {
  const snetsac::runtime::MutexLock lock(impl_->mu);
  if (!impl_->open) {
    throw WireError("restore() on a spill store that never spilled");
  }
  std::string body(frame.length, '\0');
  impl_->file.clear();
  impl_->file.seekg(static_cast<std::streamoff>(frame.offset));
  impl_->file.read(body.data(), static_cast<std::streamsize>(frame.length));
  if (impl_->file.gcount() != static_cast<std::streamsize>(frame.length)) {
    throw WireError("spill read failed at offset " +
                    std::to_string(frame.offset));
  }
  Resolvers resolvers;
  resolvers.scope = [this](std::uint32_t index, const std::string& name) {
    DetScope* scope = impl_->enc.scope_ptr(index);
    if (scope == nullptr) {
      throw WireError("spill restore: unknown scope index " +
                      std::to_string(index) + " ('" + name + "')");
    }
    return scope;
  };
  resolvers.session = [this](std::uint32_t id) {
    return impl_->enc.session_ptr(id);
  };
  Record r =
      decode_record_body(body.data(), body.size(), impl_->tables, resolvers);
  impl_->on_disk.fetch_sub(1, std::memory_order_relaxed);
  return r;
}

std::int64_t SpillStore::on_disk() const {
  return impl_->on_disk.load(std::memory_order_relaxed);
}

std::uint64_t SpillStore::bytes_written() const {
  return impl_->bytes.load(std::memory_order_relaxed);
}

}  // namespace snet::wire
