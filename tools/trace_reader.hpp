// Reader for the traces obs::TraceSink writes, in either format: JSONL
// (also the flight recorder's dump lines, which use the same flat-object
// shape) and the compact "AFTB" binary format.  load_trace() sniffs the
// magic, so every analysis command works on both transparently and decodes
// them to identical TraceEvent sequences.  AFTB files are decoded by the
// format's one codec, src/obs/aftb.hpp (header-only: no runtime library is
// linked), whose renderers also print the JSONL writer's numbers.
//
// The JSONL path is deliberately NOT a general JSON parser: every line is
// one flat object whose values are strings, numbers, or booleans — the
// schema documented in docs/observability.md.  Known keys (t, seq, span,
// cause, component, event) land in typed members; everything else is kept
// as (key, raw-value) pairs so analyses can match on fields like `addr`
// without the reader having to understand them.
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aft::tools {

struct TraceEvent {
  std::uint64_t t = 0;
  std::uint64_t seq = 0;
  std::int64_t span = -1;   ///< enclosing span-begin seq; -1 = none
  std::int64_t cause = -1;  ///< causing event seq; -1 = chain origin
  std::string component;
  std::string event;
  /// Remaining fields in file order: decoded strings, or the raw token for
  /// numbers/booleans (stable, to_chars-rendered — safe to compare as text).
  std::vector<std::pair<std::string, std::string>> fields;

  /// Value of field `key`, or nullptr.
  [[nodiscard]] const std::string* field(std::string_view key) const;
};

struct Trace {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;  ///< from the "trace"/"truncated" footer

  /// Event with `seq`, or nullptr.  Written traces are seq-dense, so this
  /// is an index lookup with a fallback scan for foreign files.
  [[nodiscard]] const TraceEvent* by_seq(std::uint64_t seq) const;
};

/// Parses all of `v` as a decimal integer; false on anything else.
template <typename Int>
[[nodiscard]] bool parse_int(std::string_view v, Int& out) {
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

/// Parses a whole JSONL stream.  On failure returns nullopt and describes
/// the first offending line in `error`.
[[nodiscard]] std::optional<Trace> parse_trace(std::istream& in,
                                               std::string& error);

/// Parses an in-memory trace, sniffing the format: data starting with the
/// "AFTB" magic decodes as the binary format (a corrupt or unknown-version
/// header is an error, never silently misparsed), anything else as JSONL.
[[nodiscard]] std::optional<Trace> parse_trace_data(std::string_view data,
                                                    std::string& error);

/// parse_trace_data over a file path ("-" reads stdin); reads in binary
/// mode so both formats load transparently.
[[nodiscard]] std::optional<Trace> load_trace(const std::string& path,
                                              std::string& error);

}  // namespace aft::tools
