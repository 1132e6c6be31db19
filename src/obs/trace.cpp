#include "obs/trace.hpp"

#include "obs/flight.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ostream>
#include <sstream>
#include <utility>

namespace aft::obs {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; encode as strings so the line stays parseable.
    append_json_string(out, std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

// LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80u | (v & 0x7Fu)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint8_t* put_varint(std::uint8_t* w, std::uint64_t v) {
  while (v >= 0x80) {
    *w++ = static_cast<std::uint8_t>(0x80u | (v & 0x7Fu));
    v >>= 7;
  }
  *w++ = static_cast<std::uint8_t>(v);
  return w;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

// Decodes a varint the sink wrote itself: no bounds to check.
std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
  }
}

// Zigzag: small-magnitude signed values -> small varints.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// Upper bounds of an encoded record: a varint of up to 64 bits takes 10
// bytes, of a string id 5.  The length prefix, then t, ref flags, span,
// cause, component, event and field count; per field its key, kind and
// value.
constexpr std::size_t kMaxVarint = 10;
constexpr std::size_t kMaxStrId = 5;
constexpr std::size_t kMaxRecordHead =
    kMaxVarint + kMaxVarint + 1 + 2 * kMaxVarint + 2 * kMaxStrId + kMaxVarint;
constexpr std::size_t kMaxFieldBytes = kMaxStrId + 1 + kMaxVarint;

std::size_t max_record_bytes(std::size_t field_count) {
  return kMaxRecordHead + kMaxFieldBytes * field_count;
}

/// One field: interned key + type tag + raw 64-bit value payload (u64
/// as-is; i64/f64 bit_cast; bool 0/1; str = interned id).
struct FieldRec {
  std::uint64_t key;
  Field::Kind kind;
  std::uint64_t bits;
};

std::uint8_t* put_field(std::uint8_t* w, const FieldRec& f) {
  w = put_varint(w, f.key);
  *w++ = static_cast<std::uint8_t>(f.kind);
  switch (f.kind) {
    case Field::Kind::kU64: return put_varint(w, f.bits);
    case Field::Kind::kI64:
      return put_varint(w, zigzag(std::bit_cast<std::int64_t>(f.bits)));
    case Field::Kind::kF64:
      for (int b = 0; b < 8; ++b) {
        *w++ = static_cast<std::uint8_t>((f.bits >> (8 * b)) & 0xFFu);
      }
      return w;
    case Field::Kind::kBool:
      *w++ = static_cast<std::uint8_t>(f.bits != 0 ? 1 : 0);
      return w;
    case Field::Kind::kStr: return put_varint(w, f.bits);
  }
  return w;
}

FieldRec get_field(const std::uint8_t*& p) {
  FieldRec f{};
  f.key = get_varint(p);
  f.kind = static_cast<Field::Kind>(*p++);
  switch (f.kind) {
    case Field::Kind::kU64: f.bits = get_varint(p); break;
    case Field::Kind::kI64:
      f.bits = std::bit_cast<std::uint64_t>(unzigzag(get_varint(p)));
      break;
    case Field::Kind::kF64:
      for (int b = 0; b < 8; ++b) {
        f.bits |= static_cast<std::uint64_t>(*p++) << (8 * b);
      }
      break;
    case Field::Kind::kBool: f.bits = *p++; break;
    case Field::Kind::kStr: f.bits = get_varint(p); break;
  }
  return f;
}

/// A decoded record, up to its fields, which follow at `fields`.
struct RecordHead {
  std::uint64_t dt;  ///< t minus the previous record's t, mod 2^64
  std::uint8_t refs;
  std::uint64_t span_delta = 0;
  std::uint64_t cause_delta = 0;
  std::uint64_t component;
  std::uint64_t event;
  std::uint64_t field_count;
  const std::uint8_t* fields;
};

/// Calls fn(head) for every buffered record, in order.
template <typename Chunks, typename Fn>
void for_each_record(const Chunks& chunks, Fn&& fn) {
  for (const auto& chunk : chunks) {
    const std::uint8_t* p = chunk.bytes.get();
    const std::uint8_t* const end = p + chunk.size;
    while (p < end) {
      const std::uint64_t body_length = get_varint(p);
      const std::uint8_t* const next = p + body_length;
      RecordHead h{};
      h.dt = static_cast<std::uint64_t>(unzigzag(get_varint(p)));
      h.refs = *p++;
      if ((h.refs & 1) != 0) h.span_delta = get_varint(p);
      if ((h.refs & 2) != 0) h.cause_delta = get_varint(p);
      h.component = get_varint(p);
      h.event = get_varint(p);
      h.field_count = get_varint(p);
      h.fields = p;
      fn(h);
      p = next;
    }
  }
}

}  // namespace

void Field::append_value(std::string& out) const {
  switch (kind_) {
    case Kind::kU64: append_u64(out, u64_); break;
    case Kind::kI64: append_i64(out, i64_); break;
    case Kind::kF64: append_json_double(out, f64_); break;
    case Kind::kBool: out += b_ ? "true" : "false"; break;
    case Kind::kStr: append_json_string(out, str_); break;
  }
}

TraceSink::TraceSink(std::size_t max_events) : max_events_(max_events) {}

std::uint8_t* TraceSink::reserve(std::size_t max_bytes) {
  if (chunks_.empty() ||
      chunks_.back().capacity - chunks_.back().size < max_bytes) {
    const std::size_t capacity = std::max(kChunkBytes, max_bytes);
    chunks_.push_back(Chunk{
        std::make_unique_for_overwrite<std::uint8_t[]>(capacity), 0, capacity});
  }
  return chunks_.back().bytes.get() + chunks_.back().size;
}

void TraceSink::commit(std::uint8_t* hole, const std::uint8_t* body_end) {
  const auto body_length = static_cast<std::size_t>(body_end - (hole + 1));
  std::size_t prefix = 1;
  if (body_length < 0x80) {
    *hole = static_cast<std::uint8_t>(body_length);
  } else {
    prefix = varint_size(body_length);
    std::memmove(hole + prefix, hole + 1, body_length);
    put_varint(hole, body_length);
  }
  chunks_.back().size += prefix + body_length;
  ++count_;
}

std::uint8_t* TraceSink::put_time(std::uint8_t* w, std::uint64_t t) {
  w = put_varint(w, zigzag(static_cast<std::int64_t>(t - last_t_)));
  last_t_ = t;
  return w;
}

std::uint64_t TraceSink::field_bits(const Field& f) {
  switch (f.kind()) {
    case Field::Kind::kU64: return f.u64();
    case Field::Kind::kI64: return std::bit_cast<std::uint64_t>(f.i64());
    // bit_cast keeps the exact double, so the JSONL decode renders the same
    // bytes Field::append_value would have.
    case Field::Kind::kF64: return std::bit_cast<std::uint64_t>(f.f64());
    case Field::Kind::kBool: return f.boolean() ? 1 : 0;
    case Field::Kind::kStr: return strings_.intern(f.str());
  }
  return 0;
}

// Record body layout (version 1; full spec in docs/observability.md):
//
//   varint zigzag(t - prev_t)    (prev_t: the previous record's, at first 0)
//   u8 ref_flags                 (bit0 span present, bit1 cause present)
//   varint seq - span            (if bit0; refs point strictly backwards)
//   varint seq - cause           (if bit1)
//   varint component_id
//   varint event_id
//   varint field_count
//   per field: varint key_id, u8 kind, value:
//     kU64 varint | kI64 varint zigzag | kF64 8 raw LE bytes |
//     kBool u8 | kStr varint string_id
//
// Strings are interned in the order they are written, which fixes the
// order of the string table.
EventId TraceSink::emit(std::string_view component, std::string_view event,
                        std::initializer_list<Field> fields) {
  if (count_ >= max_events_) {
    ++dropped_;
    return kNoEvent;
  }
  const EventId id = count_;
  if (FlightRecorder* recorder = flight(); recorder != nullptr) {
    recorder->record(time_, component, event, span_, cause_);
  }
  std::uint8_t* const hole = reserve(max_record_bytes(fields.size()));
  std::uint8_t* w = put_time(hole + 1, time_);
  const bool has_span = span_ != kNoEvent;
  const bool has_cause = cause_ != kNoEvent;
  *w++ = static_cast<std::uint8_t>((has_span ? 1 : 0) | (has_cause ? 2 : 0));
  if (has_span) w = put_varint(w, id - span_);
  if (has_cause) w = put_varint(w, id - cause_);
  w = put_varint(w, strings_.intern(component));
  w = put_varint(w, strings_.intern(event));
  w = put_varint(w, fields.size());
  for (const Field& f : fields) {
    const StrId key = strings_.intern(f.key());
    w = put_field(w, FieldRec{key, f.kind(), field_bits(f)});
  }
  commit(hole, w);
  return id;
}

void TraceSink::append(TraceSink&& other) {
  // The jobs interned independently, so other's string ids are meaningless
  // here: re-intern by content once and remap.
  std::vector<StrId> remap(other.strings_.size());
  for (std::size_t i = 0; i < other.strings_.size(); ++i) {
    remap[i] = strings_.intern(other.strings_.name(static_cast<StrId>(i)));
  }
  // Drops only ever occur at the tail (size never shrinks), and references
  // only point backwards, so a kept record can never reference a dropped
  // one; and a kept record's deltas to them do not change with the shift.
  std::uint64_t t = 0;
  for_each_record(other.chunks_, [&](const RecordHead& h) {
    t += h.dt;
    if (count_ >= max_events_) {
      ++dropped_;
      return;
    }
    std::uint8_t* const hole = reserve(max_record_bytes(h.field_count));
    std::uint8_t* w = put_time(hole + 1, t);
    *w++ = h.refs;
    if ((h.refs & 1) != 0) w = put_varint(w, h.span_delta);
    if ((h.refs & 2) != 0) w = put_varint(w, h.cause_delta);
    w = put_varint(w, remap[h.component]);
    w = put_varint(w, remap[h.event]);
    w = put_varint(w, h.field_count);
    const std::uint8_t* p = h.fields;
    for (std::uint64_t i = 0; i < h.field_count; ++i) {
      FieldRec f = get_field(p);
      f.key = remap[f.key];
      if (f.kind == Field::Kind::kStr) f.bits = remap[f.bits];
      w = put_field(w, f);
    }
    commit(hole, w);
  });
  dropped_ += other.dropped_;
  other.chunks_.clear();
  other.strings_.clear();
  other.count_ = 0;
  other.last_t_ = 0;
  other.dropped_ = 0;
}

void TraceSink::write_jsonl(std::ostream& out) const {
  std::string buf;
  const auto flush = [&out, &buf] {
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  std::uint64_t t = 0;
  std::uint64_t seq = 0;
  for_each_record(chunks_, [&](const RecordHead& h) {
    t += h.dt;
    buf += "{\"t\":";
    append_u64(buf, t);
    buf += ",\"seq\":";
    append_u64(buf, seq);
    if ((h.refs & 1) != 0) {
      buf += ",\"span\":";
      append_u64(buf, seq - h.span_delta);
    }
    if ((h.refs & 2) != 0) {
      buf += ",\"cause\":";
      append_u64(buf, seq - h.cause_delta);
    }
    buf += ",\"component\":";
    append_json_string(buf, strings_.name(static_cast<StrId>(h.component)));
    buf += ",\"event\":";
    append_json_string(buf, strings_.name(static_cast<StrId>(h.event)));
    const std::uint8_t* p = h.fields;
    for (std::uint64_t i = 0; i < h.field_count; ++i) {
      const FieldRec f = get_field(p);
      buf.push_back(',');
      append_json_string(buf, strings_.name(static_cast<StrId>(f.key)));
      buf.push_back(':');
      switch (f.kind) {
        case Field::Kind::kU64: append_u64(buf, f.bits); break;
        case Field::Kind::kI64:
          append_i64(buf, std::bit_cast<std::int64_t>(f.bits));
          break;
        case Field::Kind::kF64:
          append_json_double(buf, std::bit_cast<double>(f.bits));
          break;
        case Field::Kind::kBool: buf += f.bits != 0 ? "true" : "false"; break;
        case Field::Kind::kStr:
          append_json_string(buf, strings_.name(static_cast<StrId>(f.bits)));
          break;
      }
    }
    buf += "}\n";
    ++seq;
    if (buf.size() >= kChunkBytes) flush();
  });
  if (dropped_ > 0) {
    buf += "{\"t\":";
    append_u64(buf, last_t_);
    buf += ",\"seq\":";
    append_u64(buf, seq);
    buf += ",\"component\":\"trace\",\"event\":\"truncated\",\"dropped\":";
    append_u64(buf, dropped_);
    buf += "}\n";
  }
  flush();
}

std::string TraceSink::jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

// Binary layout (version 1; full spec in docs/observability.md):
//
//   "AFTB"  u8 version  u8 flags(0)
//   varint string_count, then per string: varint length + raw bytes
//   varint record_count
//   varint dropped                 (reader synthesizes the truncated record)
//   per record: varint body_length, then the body (see emit())
//
// Everything is position-independent of host endianness and word size; the
// length prefix lets a reader skip records it does not understand.  The
// records are buffered in this form already, so they are copied out as
// they are.
void TraceSink::write_binary(std::ostream& out) const {
  std::string buf;
  buf.append(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
  buf.push_back(static_cast<char>(kTraceBinaryVersion));
  buf.push_back(0);  // flags
  put_varint(buf, strings_.size());
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    const std::string& s = strings_.name(static_cast<StrId>(i));
    put_varint(buf, s.size());
    buf += s;
  }
  put_varint(buf, count_);
  put_varint(buf, dropped_);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  for (const Chunk& chunk : chunks_) {
    out.write(reinterpret_cast<const char*>(chunk.bytes.get()),
              static_cast<std::streamsize>(chunk.size));
  }
}

std::string TraceSink::binary() const {
  std::ostringstream out;
  write_binary(out);
  return out.str();
}

}  // namespace aft::obs
