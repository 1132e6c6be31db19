#include "obs/trace.hpp"

#include "obs/flight.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>

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
  // JSON has no inf/nan; encode as strings so the line stays parseable.
  const bool quoted = !std::isfinite(v);
  if (quoted) out.push_back('"');
  aftb::append_f64(out, v);
  if (quoted) out.push_back('"');
}

namespace {

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

/// Calls fn(record) for every record in `chunks`, in order, through the
/// AFTB reader.  The sink wrote these bytes itself, so a decode error is a
/// bug in the sink.
template <typename Chunks, typename Fn>
void decode_records(const Chunks& chunks, std::size_t string_count, Fn&& fn) {
  aftb::Reader reader(string_count);
  aftb::Record record;
  for (const auto& chunk : chunks) {
    reader.feed(chunk.bytes.get(), chunk.size);
    while (!reader.at_end()) {
      if (!reader.next(record)) {
        throw std::logic_error("TraceSink: " + reader.error());
      }
      fn(record);
    }
  }
}

}  // namespace

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
    prefix = aftb::varint_size(body_length);
    std::memmove(hole + prefix, hole + 1, body_length);
    aftb::put_varint(hole, body_length);
  }
  chunks_.back().size += prefix + body_length;
  ++count_;
}

std::uint8_t* TraceSink::put_time(std::uint8_t* w, std::uint64_t t) {
  w = aftb::put_varint(w, aftb::zigzag(static_cast<std::int64_t>(t - last_t_)));
  last_t_ = t;
  return w;
}

// The record body (layout in obs/aftb.hpp).  Strings are interned in the
// order they are written, which fixes the order of the string table.
EventId TraceSink::emit(Name component, Name event,
                        std::initializer_list<Field> fields) {
  if (count_ >= max_events_) {
    ++dropped_;
    return kNoEvent;
  }
  const EventId id = count_;
  const std::uint64_t t = obs_time();
  if (FlightRecorder* recorder = flight(); recorder != nullptr) {
    recorder->record(t, component, event, span_, cause_);
  }
  std::uint8_t* const hole = reserve(max_record_bytes(fields.size()));
  std::uint8_t* w = put_time(hole + 1, t);
  const bool has_span = span_ != kNoEvent;
  const bool has_cause = cause_ != kNoEvent;
  *w++ = static_cast<std::uint8_t>((has_span ? aftb::kHasSpan : 0) |
                                   (has_cause ? aftb::kHasCause : 0));
  if (has_span) w = aftb::put_varint(w, id - span_);
  if (has_cause) w = aftb::put_varint(w, id - cause_);
  w = aftb::put_varint(w, strings_.intern_static(component));
  w = aftb::put_varint(w, strings_.intern_static(event));
  w = aftb::put_varint(w, fields.size());
  for (const Field& f : fields) {
    const StrId key = strings_.intern_static(f.key());
    const std::uint64_t bits =
        f.kind() == Field::Kind::kStr ? strings_.intern(f.str()) : f.bits();
    w = aftb::put_field(w, {key, f.kind(), bits});
  }
  commit(hole, w);
  return id;
}

void TraceSink::append(TraceSink&& other) {
  // The jobs interned independently, so other's string ids mean nothing
  // here.  Each is re-interned by content at its first reference by a kept
  // record: the order in which emitting the same events here would have
  // interned it, so strings only dropped records use stay out of the table.
  std::vector<StrId> remap(other.strings_.size(), util::StringInterner::kNone);
  const auto map = [&](std::uint64_t id) {
    StrId& to = remap[id];
    if (to == util::StringInterner::kNone) {
      to = strings_.intern(other.strings_.name(static_cast<StrId>(id)));
    }
    return to;
  };
  // Drops only ever occur at the tail (size never shrinks), and references
  // only point backwards, so a kept record can never reference a dropped
  // one; and a kept record's deltas to them do not change with the shift.
  decode_records(other.chunks_, other.strings_.size(),
                 [&](const aftb::Record& r) {
    if (count_ >= max_events_) {
      ++dropped_;
      return;
    }
    std::uint8_t* const hole = reserve(max_record_bytes(r.fields.size()));
    std::uint8_t* w = put_time(hole + 1, r.t);
    const bool has_span = r.span != aftb::kNoRef;
    const bool has_cause = r.cause != aftb::kNoRef;
    *w++ = static_cast<std::uint8_t>((has_span ? aftb::kHasSpan : 0) |
                                     (has_cause ? aftb::kHasCause : 0));
    if (has_span) w = aftb::put_varint(w, r.seq - r.span);
    if (has_cause) w = aftb::put_varint(w, r.seq - r.cause);
    w = aftb::put_varint(w, map(r.component));
    w = aftb::put_varint(w, map(r.event));
    w = aftb::put_varint(w, r.fields.size());
    for (const aftb::FieldBits& f : r.fields) {
      const StrId key = map(f.key);
      w = aftb::put_field(
          w, {key, f.kind, f.kind == aftb::Kind::kStr ? map(f.bits) : f.bits});
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
  const auto name = [this](std::uint64_t id) -> const std::string& {
    return strings_.name(static_cast<StrId>(id));
  };
  decode_records(chunks_, strings_.size(), [&](const aftb::Record& r) {
    buf += "{\"t\":";
    append_u64(buf, r.t);
    buf += ",\"seq\":";
    append_u64(buf, r.seq);
    if (r.span != aftb::kNoRef) {
      buf += ",\"span\":";
      append_u64(buf, r.span);
    }
    if (r.cause != aftb::kNoRef) {
      buf += ",\"cause\":";
      append_u64(buf, r.cause);
    }
    buf += ",\"component\":";
    append_json_string(buf, name(r.component));
    buf += ",\"event\":";
    append_json_string(buf, name(r.event));
    for (const aftb::FieldBits& f : r.fields) {
      buf.push_back(',');
      append_json_string(buf, name(f.key));
      buf.push_back(':');
      switch (f.kind) {
        case Field::Kind::kF64:
          append_json_double(buf, std::bit_cast<double>(f.bits));
          break;
        case Field::Kind::kStr: append_json_string(buf, name(f.bits)); break;
        default: aftb::append_scalar(buf, f);
      }
    }
    buf += "}\n";
    if (buf.size() >= kChunkBytes) flush();
  });
  if (dropped_ > 0) {
    buf += "{\"t\":";
    append_u64(buf, last_t_);
    buf += ",\"seq\":";
    append_u64(buf, count_);
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

// The header (layout in obs/aftb.hpp); the records are buffered in their
// file form already, so they are copied out as they are.
void TraceSink::write_binary(std::ostream& out) const {
  std::string buf;
  buf.append(aftb::kMagic, sizeof(aftb::kMagic));
  buf.push_back(static_cast<char>(aftb::kVersion));
  buf.push_back(0);  // flags
  aftb::put_varint(buf, strings_.size());
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    const std::string& s = strings_.name(static_cast<StrId>(i));
    aftb::put_varint(buf, s.size());
    buf += s;
  }
  aftb::put_varint(buf, count_);
  aftb::put_varint(buf, dropped_);
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
