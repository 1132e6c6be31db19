// Always-on flight recorder — the black box of the observability plane.
//
// JSONL tracing (trace.hpp) is opt-in and unbounded; the flight recorder is
// the opposite trade: a fixed-size ring of compact binary records that is
// alive even when --trace is off, so that when something *goes wrong* —  an
// assumption clash, a discriminator suspending a channel, a campaign worker
// aborting — the last N instrumentation events leading up to the incident
// can be dumped, aircraft-FDR style, without having paid for full tracing.
//
// Records are cheap on purpose: a timestamp, two string_views (component /
// event — instrumentation sites pass string literals or static names, so
// storing the view is safe), and the span/cause ids active at record time.
// No formatting happens until a dump is triggered.  Cost of an untraced
// AFT_TRACE site: one TLS load of the thread's recorder pointer and a
// branch, then the ring store, all inline — no out-of-line call.  The
// pointer is null under AFT_FLIGHT=0 and while a dump replays, so a
// disabled recorder costs the load and the branch alone.  Records are
// stamped with the obs clock (obs/clock.hpp).
//
// Determinism: the recorder is thread-local like the rest of the obs state,
// and the campaign runner installs a fresh recorder per job (ScopedFlight),
// so dumps that land in a per-job TraceSink merge bit-identically for any
// AFT_THREADS value.  Dumps triggered with no sink installed append JSONL to
// $AFT_FLIGHT_PATH (or stderr), which is best-effort by nature.
//
// Runtime control: AFT_FLIGHT=0 disables recording; AFT_FLIGHT=<n> resizes
// the ring (default 256 records).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace aft::obs {

class FlightRecorder;

namespace detail {
/// Installs the calling thread's default recorder (nullptr under
/// AFT_FLIGHT=0) as its current one, and records the note that found none
/// installed yet into it.
void install_thread_flight(std::uint64_t t, std::string_view component,
                           std::string_view event, EventId span,
                           EventId cause) noexcept;
}  // namespace detail

/// One black-box record: what happened, when, inside which span, caused by
/// which event.  component/event must point at static-storage strings
/// (instrumentation sites use literals / AccessMethod::name()).
struct FlightRecord {
  std::uint64_t t = 0;
  std::string_view component;
  std::string_view event;
  EventId span = kNoEvent;
  EventId cause = kNoEvent;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = default_capacity());

  /// Stores one record, evicting the oldest when the ring is full.
  void record(std::uint64_t t, std::string_view component,
              std::string_view event, EventId span, EventId cause) noexcept {
    // Only the placeholder has no ring; a constructed recorder holds at
    // least one slot.
    if (ring_.empty()) [[unlikely]] {
      detail::install_thread_flight(t, component, event, span, cause);
      return;
    }
    ring_[head_] = FlightRecord{t, component, event, span, cause};
    if (++head_ == ring_.size()) head_ = 0;
    if (size_ < ring_.size()) ++size_;
    ++recorded_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Lifetime record count (including evicted ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  /// The retained records, oldest first.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// Drains the ring (a dump consumes the black box so consecutive
  /// incidents do not replay the same history).
  void clear() noexcept {
    size_ = 0;
    head_ = 0;
  }

  /// Renders `records` as JSON Lines (one record per line, prefixed by a
  /// header line naming `reason`), appended to `out`.
  static void render_jsonl(std::string& out, std::string_view reason,
                           const std::vector<FlightRecord>& records);

  /// Ring capacity from $AFT_FLIGHT (default 256); 0 when disabled.
  [[nodiscard]] static std::size_t default_capacity();
  /// False when AFT_FLIGHT=0 turned the recorder off process-wide.
  [[nodiscard]] static bool enabled();

  /// What every thread's recorder pointer holds until the thread takes its
  /// first record: a shared, ringless recorder whose record() installs the
  /// thread's own recorder in its place.  Never written.
  static FlightRecorder placeholder;

 private:
  struct Placeholder {};
  constexpr explicit FlightRecorder(Placeholder) noexcept {}

  std::vector<FlightRecord> ring_;
  std::size_t head_ = 0;  ///< next slot to write
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

inline constinit FlightRecorder FlightRecorder::placeholder{Placeholder{}};

#if defined(AFT_OBS_DISABLED)

inline FlightRecorder* flight() noexcept { return nullptr; }  // see obs.hpp
inline void set_flight(FlightRecorder*) noexcept {}
inline void flight_note(std::string_view, std::string_view) noexcept {}
inline void flight_dump(std::string_view) noexcept {}

#else

namespace detail {
/// The calling thread's recorder; constant-initialised, so a read is one
/// TLS load with no init guard.
inline constinit thread_local FlightRecorder* t_flight =
    &FlightRecorder::placeholder;
}  // namespace detail

/// The calling thread's recorder: the installed override (campaign jobs),
/// else the thread's default; nullptr when AFT_FLIGHT=0 and while a dump
/// replays.  Before the thread's first record it is an empty placeholder.
[[nodiscard]] inline FlightRecorder* flight() noexcept {
  return detail::t_flight;
}

/// Installs `recorder` as the thread's recorder (nullptr restores the
/// thread's default; under AFT_FLIGHT=0 nothing records either way).
/// Prefer ScopedFlight.
void set_flight(FlightRecorder* recorder) noexcept;

/// Records an instrumentation event into the flight recorder only — the
/// AFT_TRACE macro's path when no TraceSink is installed.
inline void flight_note(std::string_view component,
                        std::string_view event) noexcept {
  if (FlightRecorder* const recorder = flight(); recorder != nullptr) {
    recorder->record(obs_time(), component, event, kNoEvent, kNoEvent);
  }
}

/// Dumps and drains the thread's recorder, black-box style.  With a
/// TraceSink installed the dump lands in the trace (a "flight"/"dump"
/// header followed by one "flight"/"record" event per entry, original
/// t/span/cause carried as rt/rspan/rcause fields); otherwise it is
/// appended as JSONL to $AFT_FLIGHT_PATH, or stderr as a last resort.
void flight_dump(std::string_view reason);

#endif  // AFT_OBS_DISABLED

/// RAII installer for a per-scope recorder (campaign jobs): swaps the
/// thread's override in, restores the previous one on destruction.
class ScopedFlight {
 public:
  explicit ScopedFlight(FlightRecorder* recorder) noexcept
#if defined(AFT_OBS_DISABLED)
  {
    (void)recorder;
  }
#else
      : prev_(detail::t_flight) {
    set_flight(recorder);
  }
#endif
  ~ScopedFlight() {
#if !defined(AFT_OBS_DISABLED)
    detail::t_flight = prev_;
#endif
  }
  ScopedFlight(const ScopedFlight&) = delete;
  ScopedFlight& operator=(const ScopedFlight&) = delete;

 private:
#if !defined(AFT_OBS_DISABLED)
  FlightRecorder* prev_;
#endif
};

}  // namespace aft::obs
