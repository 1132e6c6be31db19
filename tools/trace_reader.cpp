#include "trace_reader.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <iostream>
#include <istream>
#include <sstream>

#include "obs/aftb.hpp"

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
      if (!parse_int(value, out.t)) return fail("non-integer 't'");
    } else if (key == "seq") {
      if (!parse_int(value, out.seq)) return fail("non-integer 'seq'");
    } else if (key == "span") {
      if (!parse_int(value, out.span)) return fail("non-integer 'span'");
    } else if (key == "cause") {
      if (!parse_int(value, out.cause)) return fail("non-integer 'cause'");
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

/// Decodes a whole AFTB file through the format's one reader
/// (obs/aftb.hpp).  Values become the text tokens the JSONL parser yields:
/// the codec's to_chars renderings for numbers (non-finite doubles as
/// nan/inf/-inf, which the JSONL writer quotes), true/false for booleans,
/// the string itself for strings.
std::optional<Trace> parse_binary(std::string_view data, std::string& error) {
  namespace aftb = obs::aftb;
  aftb::Reader reader(data);
  if (!reader.read_header()) {
    error = reader.error();
    return std::nullopt;
  }
  const std::vector<std::string_view>& strings = reader.strings();
  Trace trace;
  trace.events.reserve(reader.record_count() + (reader.dropped() > 0 ? 1 : 0));
  aftb::Record r;
  for (std::uint64_t i = 0; i < reader.record_count(); ++i) {
    if (!reader.next(r)) {
      error = reader.error();
      return std::nullopt;
    }
    TraceEvent& ev = trace.events.emplace_back();
    ev.t = r.t;
    ev.seq = r.seq;
    if (r.span != aftb::kNoRef) ev.span = static_cast<std::int64_t>(r.span);
    if (r.cause != aftb::kNoRef) ev.cause = static_cast<std::int64_t>(r.cause);
    ev.component = strings[r.component];
    ev.event = strings[r.event];
    ev.fields.reserve(r.fields.size());
    for (const aftb::FieldBits& f : r.fields) {
      std::string value;
      if (f.kind == aftb::Kind::kStr) {
        value = strings[f.bits];
      } else {
        aftb::append_scalar(value, f);
      }
      ev.fields.emplace_back(strings[f.key], std::move(value));
    }
  }
  if (!reader.finish()) {
    error = reader.error();
    return std::nullopt;
  }
  if (reader.dropped() > 0) {
    // Mirror the JSONL truncation footer exactly, so analyses see the
    // same event sequence whichever format they load.
    const std::uint64_t t = trace.events.empty() ? 0 : trace.events.back().t;
    TraceEvent& ev = trace.events.emplace_back();
    ev.t = t;
    ev.seq = reader.record_count();
    ev.component = "trace";
    ev.event = "truncated";
    std::string dropped;
    aftb::append_u64(dropped, reader.dropped());
    ev.fields.emplace_back("dropped", std::move(dropped));
    trace.dropped = reader.dropped();
  }
  error.clear();
  return trace;
}

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
      const std::string* d = ev.field("dropped");
      std::uint64_t n = 0;
      if (d != nullptr && parse_int(*d, n)) trace.dropped = n;
    }
    trace.events.push_back(std::move(ev));
  }
  error.clear();
  return trace;
}

std::optional<Trace> parse_trace_data(std::string_view data,
                                      std::string& error) {
  if (data.starts_with(std::string_view(obs::aftb::kMagic,
                                        sizeof(obs::aftb::kMagic)))) {
    return parse_binary(data, error);
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
