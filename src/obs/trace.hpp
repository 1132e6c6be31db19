// Deterministic event tracing — the introspection plane the paper's Sect. 3
// middleware assumes: every detector verdict, bus delivery, memory repair,
// and adaptation decision can leave a machine-readable record of *why* the
// system acted, keyed by simulated time.
//
// Each event is encoded at emit() time, straight into its final "AFTB"
// record form (obs/aftb.hpp, the format's one codec): strings —
// component/event names, field keys, string values — are interned once into
// a dense id table and the record holds varint ids, a time delta and
// backward span/cause deltas.
// The records sit in 1 MiB byte chunks, so memory tracks the on-disk bytes.
// `seq` is implicit (record position), so per-job sinks produced by the
// parallel campaign runner can be appended in job order and the merged file
// is bit-identical for any AFT_THREADS value, in either output format:
//
//   write_jsonl()  — one JSON object per line, human-greppable (the format
//                    every pinned byte-level test speaks), decoded from the
//                    buffered records;
//   write_binary() — the AFTB format itself: header and string table, then
//                    a copy of the buffered records.
//
// Causality plane (Sect. 3.2's reflective DAG made auditable): every event
// carries two optional back-references, both expressed as event ids:
//
//   span  — the id of the enclosing span-begin record (AFT_SPAN / SpanGuard);
//           the span-begin record itself carries its *parent* span, so the
//           file encodes the full span tree;
//   cause — the id of the event that causally led to this one.  Sites that
//           originate causal chains (fault injection, clashes) emit their
//           record and install its id as the sink's current cause; the
//           simulation kernel snapshots the current cause into every
//           scheduled entry and restores it at dispatch, so asynchronous
//           continuations inherit the provenance of whatever scheduled them.
//
// Event ids ARE the final `seq` values: emit() returns the index the record
// will serialize with.  Both planes only ever reference *earlier* events and
// are stored as backward deltas from the record's own position, so they are
// final at emit() and stay valid when append() shifts a job's records by
// the merge offset: `aft_trace why <seq>` works on merged campaign output.
//
// Hot-path cost model: instrumentation sites go through the AFT_TRACE macro
// (obs.hpp), which is a thread-local load + branch when no sink is installed
// and compiles to nothing when AFT_OBS_DISABLED is defined (CMake -DAFT_OBS=OFF).
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/aftb.hpp"
#include "obs/clock.hpp"
#include "util/interner.hpp"

namespace aft::obs {

/// Identifies one trace event: its eventual `seq` in the written trace.
using EventId = std::uint64_t;

/// "No event": absent span parent / causal source, or an emit() that was
/// dropped by the cap.
inline constexpr EventId kNoEvent = ~EventId{0};

/// One key/value pair of a trace event.  Values are copied/interned at
/// emit() time, so string views only need to outlive the emit call.  Keys
/// are literals: their length is taken where the Field is built, where the
/// compiler folds it.
class Field {
 public:
  using Kind = aftb::Kind;

  constexpr Field(const char* key, std::uint64_t v) noexcept
      : Field(key, Kind::kU64, v) {}
  constexpr Field(const char* key, std::int64_t v) noexcept
      : Field(key, Kind::kI64, std::bit_cast<std::uint64_t>(v)) {}
  constexpr Field(const char* key, unsigned v) noexcept
      : Field(key, static_cast<std::uint64_t>(v)) {}
  constexpr Field(const char* key, int v) noexcept
      : Field(key, static_cast<std::int64_t>(v)) {}
  constexpr Field(const char* key, double v) noexcept
      : Field(key, Kind::kF64, std::bit_cast<std::uint64_t>(v)) {}
  constexpr Field(const char* key, bool v) noexcept
      : Field(key, Kind::kBool, v ? 1u : 0u) {}
  constexpr Field(const char* key, std::string_view v) noexcept
      : Field(key, Kind::kStr, 0) { str_ = v; }
  constexpr Field(const char* key, const char* v) noexcept
      : Field(key, std::string_view(v)) {}

  [[nodiscard]] constexpr std::string_view key() const noexcept {
    return {key_, key_size_};
  }
  [[nodiscard]] constexpr Kind kind() const noexcept { return kind_; }
  /// The value as AFTB's raw 64 bits (aftb::FieldBits); 0 for a string.
  [[nodiscard]] constexpr std::uint64_t bits() const noexcept { return bits_; }
  [[nodiscard]] constexpr std::string_view str() const noexcept {
    return str_;
  }

 private:
  constexpr Field(const char* key, Kind kind, std::uint64_t bits) noexcept
      : key_(key),
        key_size_(static_cast<std::uint32_t>(
            std::char_traits<char>::length(key))),
        kind_(kind),
        bits_(bits) {}

  const char* key_;
  std::uint32_t key_size_;
  Kind kind_;
  std::uint64_t bits_;
  std::string_view str_{};  // only meaningful for Kind::kStr
};

/// Appends a JSON string literal (quotes + escapes) to `out`.
void append_json_string(std::string& out, std::string_view s);

/// Appends the shortest round-trip decimal rendering of `v` to `out`
/// (std::to_chars), so numeric output is locale-independent and stable.
void append_json_double(std::string& out, double v);

/// Decimal integers, rendered by the same to_chars routine that the trace
/// tools use for AFTB values (obs/aftb.hpp).
using aftb::append_i64;
using aftb::append_u64;

class TraceSink {
 public:
  /// `max_events` bounds memory; events past the cap are counted in
  /// dropped() and a final "trace"/"truncated" record is written instead.
  explicit TraceSink(std::size_t max_events = kDefaultMaxEvents);

  /// Current causal source: the id every subsequent emit() records in its
  /// `cause` field.  Chain origins (fault injections, clashes) install the
  /// id emit() returned; chain links install theirs for one scope through
  /// obs::CauseScope (obs.hpp); the sim kernel snapshots/restores it around
  /// schedule/dispatch (see simulator.cpp).
  void set_cause(EventId cause) noexcept { cause_ = cause; }
  [[nodiscard]] EventId cause() const noexcept { return cause_; }

  /// Current enclosing span (the id of its span-begin record).  Managed by
  /// SpanGuard / AFT_SPAN; stamped into every event's `span` field.
  void set_span(EventId span) noexcept { span_ = span; }
  [[nodiscard]] EventId span() const noexcept { return span_; }

  /// When enabled, instrumentation sites also emit high-volume per-dispatch
  /// records (e.g. sim event dispatch, scrub passes).  Off by default.
  void set_detail(bool on) noexcept { detail_ = on; }
  [[nodiscard]] bool detail() const noexcept { return detail_; }

  /// Records one event at the obs clock's time (obs/clock.hpp), stamped
  /// with the current span and cause.  Returns the event's id — its final `seq` in
  /// the written file — or kNoEvent when the cap dropped it.
  EventId emit(std::string_view component, std::string_view event,
               std::initializer_list<Field> fields = {});

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Moves `other`'s events to the end of this sink (campaign merge: called
  /// once per job, in job-index order, so the result is thread-count
  /// independent).  `other`'s records are re-encoded here: its strings are
  /// re-interned by content at their first use by a kept record, so the
  /// bytes equal emitting the same events here, and its first time delta
  /// is re-based; span/cause deltas are relative to position and carry over
  /// as they are.  `other` is left empty.
  void append(TraceSink&& other);

  /// Serializes all events as JSON Lines; `seq` is assigned here, in event
  /// order, making (t, seq) a total order over the file.  span/cause fields
  /// are written only when set, immediately after `seq`.
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] std::string jsonl() const;

  /// Serializes the same events in the compact "AFTB" binary format:
  /// string table up front, then the buffered length-prefixed records with
  /// varint-coded interned ids, delta-coded times, and backward-delta
  /// span/cause refs.  tools/trace_reader decodes both formats to identical
  /// event sequences.
  void write_binary(std::ostream& out) const;
  [[nodiscard]] std::string binary() const;

  static constexpr std::size_t kDefaultMaxEvents = 1u << 22;

  /// Size of one record chunk.  A record never straddles two chunks; one
  /// larger than this gets a chunk of its own.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

 private:
  using StrId = util::StringInterner::Id;

  /// Encoded records, back to back: varint body_length + body each.
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  /// Where the next record goes, with at least `max_bytes` free behind it.
  std::uint8_t* reserve(std::size_t max_bytes);
  /// Writes the length prefix of the body in [hole + 1, body_end) into the
  /// one-byte hole reserve() returned, and counts the record.
  void commit(std::uint8_t* hole, const std::uint8_t* body_end);
  /// Encodes a record's time delta against the last kept record.
  std::uint8_t* put_time(std::uint8_t* w, std::uint64_t t);

  // Chunked, not one flat buffer: emit() is on the simulation hot path, and
  // at million-record scale buffer doublings would memcpy the whole trace
  // and fault in fresh pages mid-measurement.
  std::vector<Chunk> chunks_;
  util::StringInterner strings_;
  std::size_t count_ = 0;
  std::size_t max_events_;
  std::uint64_t last_t_ = 0;  ///< t of the last kept record (0 before any)
  EventId cause_ = kNoEvent;
  EventId span_ = kNoEvent;
  std::uint64_t dropped_ = 0;
  bool detail_ = false;
};

}  // namespace aft::obs
