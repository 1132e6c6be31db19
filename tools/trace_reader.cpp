#include "trace_reader.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <istream>
#include <sstream>

namespace aft::tools {

namespace {

/// Cursor over one JSONL line.  All parse_* helpers return false on
/// malformed input and leave `err_` describing what was expected.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  [[nodiscard]] const std::string& error() const { return err_; }

  bool parse_object(TraceEvent& out) {
    skip_ws();
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;  // {} — legal, if useless
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key");
      skip_ws();
      if (!parse_value(key, out)) return false;
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

 private:
  bool parse_value(const std::string& key, TraceEvent& out) {
    std::string value;
    if (peek() == '"') {
      if (!parse_string(value)) return false;
    } else {
      // Number / true / false / null: the token runs to the next
      // delimiter.  Kept verbatim — the writer's to_chars output is
      // stable, so analyses compare these as text.
      const std::size_t start = pos_;
      while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
             !std::isspace(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start) return fail("expected a value");
      value.assign(s_.substr(start, pos_ - start));
    }
    return store(key, value, out);
  }

  bool store(const std::string& key, std::string& value, TraceEvent& out) {
    if (key == "component") {
      out.component = std::move(value);
    } else if (key == "event") {
      out.event = std::move(value);
    } else if (key == "t") {
      if (!to_u64(value, out.t)) return fail("non-integer 't'");
    } else if (key == "seq") {
      if (!to_u64(value, out.seq)) return fail("non-integer 'seq'");
    } else if (key == "span") {
      if (!to_i64(value, out.span)) return fail("non-integer 'span'");
    } else if (key == "cause") {
      if (!to_i64(value, out.cause)) return fail("non-integer 'cause'");
    } else {
      out.fields.emplace_back(key, std::move(value));
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          const auto [p, ec] =
              std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, cp, 16);
          if (ec != std::errc() || p != s_.data() + pos_ + 4) {
            return fail("bad \\u escape");
          }
          pos_ += 4;
          append_utf8(cp, out);
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  static void append_utf8(unsigned cp, std::string& out) {
    // The writer only \u-escapes control characters (single byte), but
    // accept the full BMP so hand-edited traces round-trip too.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  static bool to_u64(std::string_view v, std::uint64_t& out) {
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    return ec == std::errc() && p == v.data() + v.size();
  }

  static bool to_i64(std::string_view v, std::int64_t& out) {
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    return ec == std::errc() && p == v.data() + v.size();
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool fail(std::string_view what) {
    err_.assign(what);
    err_ += " at byte ";
    err_ += std::to_string(pos_);
    return false;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string err_;
};

// --- binary ("AFTB") format ----------------------------------------------
//
// Layout (must match obs::TraceSink::write_binary; spec in
// docs/observability.md): magic, version, flags, string table, record
// count, dropped count, then length-prefixed records with varint-coded
// interned ids, zigzag-delta times, and backward-delta span/cause refs.

constexpr char kBinaryMagic[4] = {'A', 'F', 'T', 'B'};
constexpr std::uint8_t kBinaryVersion = 1;

class BinaryParser {
 public:
  explicit BinaryParser(std::string_view data) : s_(data) {}

  [[nodiscard]] const std::string& error() const { return err_; }

  bool parse(Trace& out) {
    pos_ = sizeof(kBinaryMagic);  // caller checked the magic
    std::uint8_t version = 0;
    if (!get_u8(version)) return fail("truncated header");
    if (version != kBinaryVersion) {
      err_ = "unsupported binary trace version " + std::to_string(version) +
             " (expected " + std::to_string(kBinaryVersion) + ")";
      return false;
    }
    std::uint8_t flags = 0;
    if (!get_u8(flags)) return fail("truncated header");
    std::uint64_t string_count = 0;
    if (!get_varint(string_count)) return fail("truncated string table");
    if (string_count > s_.size()) return fail("implausible string count");
    strings_.reserve(string_count);
    for (std::uint64_t i = 0; i < string_count; ++i) {
      std::uint64_t len = 0;
      if (!get_varint(len) || len > s_.size() - pos_) {
        return fail("truncated string table");
      }
      strings_.emplace_back(s_.substr(pos_, len));
      pos_ += len;
    }
    std::uint64_t record_count = 0;
    std::uint64_t dropped = 0;
    if (!get_varint(record_count) || !get_varint(dropped)) {
      return fail("truncated header");
    }
    if (record_count > s_.size()) return fail("implausible record count");
    out.events.reserve(record_count + (dropped > 0 ? 1 : 0));
    std::uint64_t t = 0;
    for (std::uint64_t seq = 0; seq < record_count; ++seq) {
      std::uint64_t body_len = 0;
      if (!get_varint(body_len) || body_len > s_.size() - pos_) {
        return fail("truncated record");
      }
      const std::size_t body_end = pos_ + body_len;
      TraceEvent ev;
      std::uint64_t dt = 0;
      std::uint8_t refs = 0;
      if (!get_varint(dt) || !get_u8(refs)) return fail("truncated record");
      t += unzigzag(dt);
      ev.t = t;
      ev.seq = seq;
      std::uint64_t delta = 0;
      if ((refs & 1) != 0) {
        if (!get_varint(delta) || delta > seq) return fail("bad span ref");
        ev.span = static_cast<std::int64_t>(seq - delta);
      }
      if ((refs & 2) != 0) {
        if (!get_varint(delta) || delta > seq) return fail("bad cause ref");
        ev.cause = static_cast<std::int64_t>(seq - delta);
      }
      if (!get_string(ev.component) || !get_string(ev.event)) return false;
      std::uint64_t field_count = 0;
      if (!get_varint(field_count)) return fail("truncated record");
      if (field_count > body_len) return fail("implausible field count");
      ev.fields.reserve(field_count);
      for (std::uint64_t f = 0; f < field_count; ++f) {
        std::string key;
        if (!get_string(key)) return false;
        std::uint8_t kind = 0;
        if (!get_u8(kind)) return fail("truncated field");
        std::string value;
        if (!get_value(kind, value)) return false;
        ev.fields.emplace_back(std::move(key), std::move(value));
      }
      if (pos_ != body_end) {
        // A v1 writer fills the body exactly; slack means corruption (a
        // future minor version would bump the version byte instead).
        return fail("record body length mismatch");
      }
      out.events.push_back(std::move(ev));
    }
    if (pos_ != s_.size()) return fail("trailing bytes after last record");
    if (dropped > 0) {
      // Mirror the JSONL truncation footer exactly, so analyses see the
      // same event sequence whichever format they load.
      TraceEvent ev;
      ev.t = t;
      ev.seq = record_count;
      ev.component = "trace";
      ev.event = "truncated";
      ev.fields.emplace_back("dropped", u64_token(dropped));
      out.events.push_back(std::move(ev));
      out.dropped = dropped;
    }
    return true;
  }

 private:
  bool get_u8(std::uint8_t& out) {
    if (pos_ >= s_.size()) return false;
    out = static_cast<std::uint8_t>(s_[pos_++]);
    return true;
  }

  bool get_varint(std::uint64_t& out) {
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      std::uint8_t byte = 0;
      if (!get_u8(byte)) return false;
      out |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return true;
    }
    return false;  // > 10 continuation bytes: not a valid 64-bit varint
  }

  bool get_string(std::string& out) {
    std::uint64_t id = 0;
    if (!get_varint(id)) return fail("truncated string ref");
    if (id >= strings_.size()) return fail("string id out of range");
    out = strings_[id];
    return true;
  }

  /// Decodes one field value to the same text token the JSONL parser
  /// produces: to_chars renderings for numbers, true/false for booleans,
  /// the decoded string for strings (non-finite doubles were written as
  /// the strings "nan"/"inf"/"-inf" in JSONL, so render those here too).
  bool get_value(std::uint8_t kind, std::string& out) {
    switch (kind) {
      case 0: {  // u64
        std::uint64_t v = 0;
        if (!get_varint(v)) return fail("truncated u64 field");
        out = u64_token(v);
        return true;
      }
      case 1: {  // i64 (zigzag)
        std::uint64_t v = 0;
        if (!get_varint(v)) return fail("truncated i64 field");
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf),
                                       static_cast<std::int64_t>(unzigzag(v)));
        out.assign(buf, res.ptr);
        return true;
      }
      case 2: {  // f64: 8 raw little-endian bytes
        if (s_.size() - pos_ < 8) return fail("truncated f64 field");
        std::uint64_t bits = 0;
        for (int b = 0; b < 8; ++b) {
          bits |= static_cast<std::uint64_t>(
                      static_cast<std::uint8_t>(s_[pos_++]))
                  << (8 * b);
        }
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isnan(v)) {
          out = "nan";
        } else if (std::isinf(v)) {
          out = v > 0 ? "inf" : "-inf";
        } else {
          char buf[32];
          const auto res = std::to_chars(buf, buf + sizeof(buf), v);
          out.assign(buf, res.ptr);
        }
        return true;
      }
      case 3: {  // bool
        std::uint8_t v = 0;
        if (!get_u8(v)) return fail("truncated bool field");
        out = v != 0 ? "true" : "false";
        return true;
      }
      case 4:  // interned string
        return get_string(out);
      default:
        return fail("unknown field kind " + std::to_string(kind));
    }
  }

  static std::uint64_t unzigzag(std::uint64_t v) {
    return (v >> 1) ^ (~(v & 1) + 1);
  }

  static std::string u64_token(std::uint64_t v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
  }

  bool fail(std::string_view what) {
    err_ = "corrupt binary trace: ";
    err_ += what;
    err_ += " at byte " + std::to_string(pos_);
    return false;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::vector<std::string> strings_;
  std::string err_;
};

}  // namespace

const std::string* TraceEvent::field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

const TraceEvent* Trace::by_seq(std::uint64_t seq) const {
  if (seq < events.size() && events[seq].seq == seq) return &events[seq];
  for (const TraceEvent& e : events) {
    if (e.seq == seq) return &e;
  }
  return nullptr;
}

std::optional<Trace> parse_trace(std::istream& in, std::string& error) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceEvent ev;
    LineParser parser(line);
    if (!parser.parse_object(ev)) {
      error = "line " + std::to_string(lineno) + ": " + parser.error();
      return std::nullopt;
    }
    if (ev.component == "trace" && ev.event == "truncated") {
      if (const std::string* d = ev.field("dropped")) {
        std::uint64_t n = 0;
        const auto [p, ec] = std::from_chars(d->data(), d->data() + d->size(), n);
        if (ec == std::errc() && p == d->data() + d->size()) trace.dropped = n;
      }
    }
    trace.events.push_back(std::move(ev));
  }
  error.clear();
  return trace;
}

std::optional<Trace> parse_trace_data(std::string_view data,
                                      std::string& error) {
  if (data.size() >= sizeof(kBinaryMagic) &&
      std::memcmp(data.data(), kBinaryMagic, sizeof(kBinaryMagic)) == 0) {
    Trace trace;
    BinaryParser parser(data);
    if (!parser.parse(trace)) {
      error = parser.error();
      return std::nullopt;
    }
    error.clear();
    return trace;
  }
  std::istringstream in{std::string(data)};
  return parse_trace(in, error);
}

std::optional<Trace> load_trace(const std::string& path, std::string& error) {
  std::ostringstream data;
  if (path == "-") {
    data << std::cin.rdbuf();
  } else {
    // Binary mode: the format sniff must see the file's exact bytes.
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in) {
      error = "cannot open '" + path + "'";
      return std::nullopt;
    }
    data << in.rdbuf();
  }
  return parse_trace_data(data.str(), error);
}

}  // namespace aft::tools
