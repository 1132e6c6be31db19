// AFTB v1, the binary trace format, written down once.  This file is its
// normative implementation: obs::TraceSink encodes records with the
// primitives below and decodes its own buffered records (write_jsonl,
// append) through aftb::Reader, and tools/trace_reader parses whole files
// through the same Reader.  It needs nothing beyond the standard library,
// so the post-mortem tools include it without linking the runtime.
//
// File layout (every varint is LEB128: 7 value bits per byte, low group
// first, high bit = continuation; zigzag maps signed to unsigned):
//
//   "AFTB"  u8 version(1)  u8 flags(0)
//   varint string_count, then per string: varint byte_length + raw bytes
//   varint record_count
//   varint dropped               (readers synthesize the truncated footer)
//   per record: varint body_length, then the body:
//     varint zigzag(t - prev_t)  (prev_t: the previous record's t, at first 0)
//     u8 ref_flags               (bit0 span present, bit1 cause present)
//     varint seq - span          (if bit0; references point backwards)
//     varint seq - cause         (if bit1)
//     varint component_id
//     varint event_id
//     varint field_count
//     per field: varint key_id, u8 kind, value:
//       kU64(0) varint | kI64(1) varint zigzag | kF64(2) 8 raw LE bytes |
//       kBool(3) u8 | kStr(4) varint string_id
//
// `seq` is implicit: a record's position, from 0.  String ids index the
// table, which lists strings in the order of their first reference.  A v1
// writer fills each body exactly, so slack or an unknown flag bit means
// corruption; a format change bumps the version byte.
#pragma once

#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace aft::obs::aftb {

inline constexpr char kMagic[4] = {'A', 'F', 'T', 'B'};
inline constexpr std::uint8_t kVersion = 1;

/// Field value kinds, valued as their u8 codes.
enum class Kind : std::uint8_t { kU64, kI64, kF64, kBool, kStr };

/// ref_flags bits.
inline constexpr std::uint8_t kHasSpan = 1;
inline constexpr std::uint8_t kHasCause = 2;

/// A decoded record's absent span or cause.
inline constexpr std::uint64_t kNoRef = ~std::uint64_t{0};

/// One field: key id, kind, and the value as raw 64 bits (u64 as-is; i64
/// and f64 bit_cast; bool 0/1; str its string id).
struct FieldBits {
  std::uint64_t key;
  Kind kind;
  std::uint64_t bits;
};

// --- encoding: unchecked; the caller reserves room for the worst case ----

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

inline std::uint8_t* put_varint(std::uint8_t* w, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *w++ = static_cast<std::uint8_t>(0x80u | (v & 0x7Fu));
    v >>= 7;
  }
  *w++ = static_cast<std::uint8_t>(v);
  return w;
}

inline void put_varint(std::string& out, std::uint64_t v) {
  std::uint8_t buf[10];
  out.append(reinterpret_cast<const char*>(buf),
             static_cast<std::size_t>(put_varint(buf, v) - buf));
}

inline std::uint8_t* put_field(std::uint8_t* w, const FieldBits& f) noexcept {
  w = put_varint(w, f.key);
  *w++ = static_cast<std::uint8_t>(f.kind);
  switch (f.kind) {
    case Kind::kU64: return put_varint(w, f.bits);
    case Kind::kI64:
      return put_varint(w, zigzag(std::bit_cast<std::int64_t>(f.bits)));
    case Kind::kF64:
      for (int b = 0; b < 8; ++b) {
        *w++ = static_cast<std::uint8_t>((f.bits >> (8 * b)) & 0xFFu);
      }
      return w;
    case Kind::kBool:
      *w++ = static_cast<std::uint8_t>(f.bits != 0 ? 1 : 0);
      return w;
    case Kind::kStr: return put_varint(w, f.bits);
  }
  return w;
}

// --- decoding: bounds-checked --------------------------------------------

/// One decoded record.  `span` and `cause` are absolute seqs, or kNoRef.
struct Record {
  std::uint64_t t = 0;
  std::uint64_t seq = 0;
  std::uint64_t span = kNoRef;
  std::uint64_t cause = kNoRef;
  std::uint64_t component = 0;  ///< string id
  std::uint64_t event = 0;      ///< string id
  std::vector<FieldBits> fields;
};

/// The one AFTB decoder.  Every read is checked against the bytes it was
/// given and every id against the string table, so a truncated or corrupt
/// input fails with a "corrupt binary trace: <what> at byte <n>" error()
/// instead of being misread.  After a failure the reader is spent.
class Reader {
 public:
  /// A whole file: read_header(), next() record_count() times, finish().
  explicit Reader(std::string_view file) noexcept
      : begin_(reinterpret_cast<const std::uint8_t*>(file.data())),
        p_(begin_),
        end_(begin_ + file.size()) {}

  /// Headerless records whose ids index a table of `string_count` strings:
  /// feed() each byte range in order, next() until at_end().  t and seq
  /// carry over from one range to the next.
  explicit Reader(std::uint64_t string_count) noexcept
      : string_count_(string_count) {}

  void feed(const std::uint8_t* bytes, std::size_t size) noexcept {
    begin_ = p_ = bytes;
    end_ = bytes + size;
  }

  [[nodiscard]] bool at_end() const noexcept { return p_ == end_; }

  [[nodiscard]] bool read_header() {
    if (remaining() < sizeof(kMagic) ||
        std::memcmp(p_, kMagic, sizeof(kMagic)) != 0) {
      return fail("bad magic");
    }
    p_ += sizeof(kMagic);
    std::uint8_t version = 0;
    if (!u8(version)) return fail("truncated header");
    if (version != kVersion) {
      error_ = "unsupported binary trace version " + std::to_string(version) +
               " (expected " + std::to_string(kVersion) + ")";
      return false;
    }
    std::uint8_t flags = 0;
    if (!u8(flags)) return fail("truncated header");
    if (flags != 0) return fail("unknown header flags");
    if (!varint(string_count_)) return fail("truncated string table");
    if (string_count_ > remaining()) return fail("implausible string count");
    strings_.reserve(string_count_);
    for (std::uint64_t i = 0; i < string_count_; ++i) {
      std::uint64_t length = 0;
      if (!varint(length) || length > remaining()) {
        return fail("truncated string table");
      }
      strings_.emplace_back(reinterpret_cast<const char*>(p_), length);
      p_ += length;
    }
    if (!varint(record_count_) || !varint(dropped_)) {
      return fail("truncated header");
    }
    if (record_count_ > remaining()) return fail("implausible record count");
    return true;
  }

  /// The file's string table; views into the bytes given.
  [[nodiscard]] const std::vector<std::string_view>& strings() const noexcept {
    return strings_;
  }
  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return record_count_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Decodes the next record into `r` (its field vector is reused).
  [[nodiscard]] bool next(Record& r) {
    std::uint64_t body_length = 0;
    if (!varint(body_length) || body_length > remaining()) {
      return fail("truncated record");
    }
    // Reads stay inside the body; the record's end is where the prefix says.
    const std::uint8_t* const end = end_;
    end_ = p_ + body_length;
    std::uint64_t dt = 0;
    std::uint8_t refs = 0;
    if (!varint(dt) || !u8(refs)) return fail("truncated record");
    if ((refs & ~(kHasSpan | kHasCause)) != 0) return fail("unknown ref flags");
    r.t = last_t_ + static_cast<std::uint64_t>(unzigzag(dt));
    r.seq = seq_;
    r.span = kNoRef;
    r.cause = kNoRef;
    if ((refs & kHasSpan) != 0 && !ref(r.span, "bad span ref")) return false;
    if ((refs & kHasCause) != 0 && !ref(r.cause, "bad cause ref")) {
      return false;
    }
    if (!string_id(r.component) || !string_id(r.event)) return false;
    std::uint64_t field_count = 0;
    if (!varint(field_count)) return fail("truncated record");
    if (field_count > remaining()) return fail("implausible field count");
    r.fields.resize(field_count);
    for (FieldBits& f : r.fields) {
      if (!field(f)) return false;
    }
    if (!at_end()) return fail("record body length mismatch");
    end_ = end;
    last_t_ = r.t;
    ++seq_;
    return true;
  }

  /// After the last record: the file must end there.
  [[nodiscard]] bool finish() {
    return at_end() || fail("trailing bytes after last record");
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  bool u8(std::uint8_t& out) noexcept {
    if (p_ == end_) return false;
    out = *p_++;
    return true;
  }

  bool varint(std::uint64_t& out) noexcept {
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte = 0;
      if (!u8(byte)) return false;
      out |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return true;
    }
    return false;  // more than 10 bytes: not a 64-bit varint
  }

  bool string_id(std::uint64_t& id) {
    if (!varint(id)) return fail("truncated string ref");
    return id < string_count_ || fail("string id out of range");
  }

  /// A reference `seq - delta`, which must not point before record 0.
  bool ref(std::uint64_t& out, const char* what) {
    std::uint64_t delta = 0;
    if (!varint(delta) || delta > seq_) return fail(what);
    out = seq_ - delta;
    return true;
  }

  bool field(FieldBits& f) {
    std::uint8_t kind = 0;
    if (!string_id(f.key)) return false;
    if (!u8(kind)) return fail("truncated field");
    f.kind = static_cast<Kind>(kind);
    f.bits = 0;
    switch (f.kind) {
      case Kind::kU64: return varint(f.bits) || fail("truncated field");
      case Kind::kI64:
        if (!varint(f.bits)) return fail("truncated field");
        f.bits = std::bit_cast<std::uint64_t>(unzigzag(f.bits));
        return true;
      case Kind::kF64:
        if (remaining() < 8) return fail("truncated field");
        for (int b = 0; b < 8; ++b) {
          f.bits |= static_cast<std::uint64_t>(*p_++) << (8 * b);
        }
        return true;
      case Kind::kBool:
        if (at_end()) return fail("truncated field");
        f.bits = *p_++;
        return true;
      case Kind::kStr: return string_id(f.bits);
    }
    return fail("unknown field kind " + std::to_string(kind));
  }

  bool fail(std::string_view what) {
    error_ = "corrupt binary trace: ";
    error_ += what;
    error_ += " at byte " + std::to_string(p_ - begin_);
    return false;
  }

  const std::uint8_t* begin_ = nullptr;  ///< offsets in errors count from here
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint64_t string_count_ = 0;
  std::vector<std::string_view> strings_;
  std::uint64_t record_count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t last_t_ = 0;
  std::uint64_t seq_ = 0;
  std::string error_;
};

// --- rendering: the value tokens both trace formats print ---------------

/// Appends `v` in decimal (std::to_chars: locale-independent and stable).
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

inline void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends the shortest decimal that reads back as `v`, or nan, inf, -inf.
inline void append_f64(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf");
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends the token of a u64, i64, f64 or bool field as a JSONL line
/// spells it, non-finite f64 unquoted.  A kStr value needs the string
/// table: the caller renders it.
inline void append_scalar(std::string& out, const FieldBits& f) {
  switch (f.kind) {
    case Kind::kU64: append_u64(out, f.bits); break;
    case Kind::kI64:
      append_i64(out, std::bit_cast<std::int64_t>(f.bits));
      break;
    case Kind::kF64: append_f64(out, std::bit_cast<double>(f.bits)); break;
    case Kind::kBool: out += f.bits != 0 ? "true" : "false"; break;
    case Kind::kStr: break;
  }
}

}  // namespace aft::obs::aftb
