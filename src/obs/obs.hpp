// Instrumentation access point: a per-thread current TraceSink,
// MetricsRegistry, and FlightRecorder, installed by benches (obs::ObsCli) or
// per campaign job (util::parallel_for_index), plus the AFT_TRACE /
// AFT_METRIC_ADD / AFT_SPAN macros the subsystems call.
//
// Cost when no sink is installed: one thread-local load and a predictable
// branch per site, plus, for AFT_TRACE, a second TLS load and branch and a
// ~40-byte ring store into the always-on flight recorder (flight.hpp), all
// inline.  Every record is stamped with the one obs clock (clock.hpp),
// which the sim kernel stores once per dispatched event.  Cost when
// compiled out (-DAFT_OBS=OFF, which defines AFT_OBS_DISABLED): zero — the macros expand to (void)0 and the
// accessors collapse to an inline nullptr, so every instrumentation site
// folds away.
//
// Threading model: the pointers are thread_local and never shared; each
// campaign worker installs its own per-job sink, and util::parallel_for_index
// merges the per-job results in job-index order, which is what keeps traces
// and metrics bit-identical for any AFT_THREADS value.
#pragma once

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aft::obs {

#if defined(AFT_OBS_DISABLED)

// Inline rather than constexpr: the optimizer still folds every site, but
// the front end does not turn `TraceSink* const sink = trace()` into a
// literal null and warn (-Wnonnull) on the calls its guard makes
// unreachable — so call sites need no AFT_OBS_DISABLED fork of their own.
inline TraceSink* trace() noexcept { return nullptr; }
inline MetricsRegistry* metrics() noexcept { return nullptr; }
inline void set_trace(TraceSink*) noexcept {}
inline void set_metrics(MetricsRegistry*) noexcept {}
constexpr EventId current_cause() noexcept { return kNoEvent; }

#else

namespace detail {
// Inline and constant-initialised, so every site reads the slot directly:
// no call, no TLS init guard.
inline constinit thread_local TraceSink* t_trace = nullptr;
inline constinit thread_local MetricsRegistry* t_metrics = nullptr;
}  // namespace detail

/// The calling thread's current sink/registry; nullptr when tracing is off.
[[nodiscard]] inline TraceSink* trace() noexcept { return detail::t_trace; }
[[nodiscard]] inline MetricsRegistry* metrics() noexcept {
  return detail::t_metrics;
}

inline void set_trace(TraceSink* sink) noexcept { detail::t_trace = sink; }
inline void set_metrics(MetricsRegistry* registry) noexcept {
  detail::t_metrics = registry;
}

/// The sink's current cause, kNoEvent when no sink is installed: the
/// snapshot queued work carries so it can reinstate its scheduler's
/// provenance later (the sim kernel per entry, the cluster queue per
/// invoke).
[[nodiscard]] inline EventId current_cause() noexcept {
  const TraceSink* const sink = trace();
  return sink != nullptr ? sink->cause() : kNoEvent;
}

#endif  // AFT_OBS_DISABLED

/// RAII installer: swaps in a sink/registry pair for the current thread,
/// starts the obs clock at 0 for the scope (records taken before the
/// scope's first dispatch are stamped t=0, whatever an earlier scope left
/// on the clock), and restores the previous pair and clock on destruction
/// (nestable).
class ScopedObs {
 public:
  ScopedObs(TraceSink* sink, MetricsRegistry* registry) noexcept
      : prev_trace_(trace()), prev_metrics_(metrics()), prev_time_(obs_time()) {
    set_trace(sink);
    set_metrics(registry);
    set_obs_time(0);
  }
  ~ScopedObs() {
    set_trace(prev_trace_);
    set_metrics(prev_metrics_);
    set_obs_time(prev_time_);
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  TraceSink* prev_trace_;
  MetricsRegistry* prev_metrics_;
  std::uint64_t prev_time_;
};

/// RAII span: emits a "span-begin" record naming the span, makes its id the
/// sink's current span (so every event inside carries `span`, and nested
/// span-begins carry their parent), and emits "span-end" — stamped with the
/// span's own id — on destruction.  No-op when no sink is installed.
/// Instantiate via AFT_SPAN.
class SpanGuard {
 public:
  SpanGuard(const char* component, const char* name) noexcept
      : sink_(trace()) {
    if (sink_ == nullptr) return;
    component_ = component;
    prev_span_ = sink_->span();
    const EventId id = sink_->emit(component, "span-begin", {{"name", name}});
    if (id != kNoEvent) sink_->set_span(id);
  }
  ~SpanGuard() {
    if (sink_ == nullptr) return;
    sink_->emit(component_, "span-end");
    sink_->set_span(prev_span_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  TraceSink* sink_;
  const char* component_ = nullptr;
  EventId prev_span_ = kNoEvent;
};

/// RAII causal scope for chain-link records: a record that starts a
/// reaction is the current cause for exactly as long as the reaction runs,
/// and the previous cause comes back on destruction — normal exit or
/// unwind.  With no sink installed the emitting form falls back to a
/// flight-recorder note; under AFT_OBS=OFF every path folds away.
class CauseScope {
 public:
  /// Emits `component`/`event` and installs the record as the current
  /// cause.  A non-kNoEvent `emitted_under` is the cause stamped on the
  /// record itself (evidence joined from elsewhere); the ambient cause is
  /// what the scope restores.  A record dropped by the sink cap installs
  /// nothing.  `component`/`event` must be static strings: the flight
  /// recorder keeps the views.
  CauseScope(std::string_view component, std::string_view event,
             std::initializer_list<Field> fields = {},
             EventId emitted_under = kNoEvent)
      : sink_(trace()) {
    if (sink_ == nullptr) {
      flight_note(component, event);
      return;
    }
    prev_ = sink_->cause();
    if (emitted_under != kNoEvent) sink_->set_cause(emitted_under);
    const EventId id = sink_->emit(component, event, fields);
    if (id != kNoEvent) {
      sink_->set_cause(id);
    } else {
      sink_->set_cause(prev_);  // undo emitted_under; nothing to restore
      sink_ = nullptr;
    }
  }

  /// Installs an existing id — kNoEvent included — as the current cause.
  explicit CauseScope(EventId cause) noexcept : sink_(trace()) {
    if (sink_ == nullptr) return;
    prev_ = sink_->cause();
    sink_->set_cause(cause);
  }

  ~CauseScope() {
    if (sink_ != nullptr) sink_->set_cause(prev_);
  }
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

 private:
  TraceSink* sink_;  ///< the sink to restore; nullptr when nothing installed
  EventId prev_ = kNoEvent;
};

}  // namespace aft::obs

// Instrumentation macros.  `...` is a braced Field list, e.g.
//   AFT_TRACE("mem.remap", "remap", {{"logical", addr}, {"spare", spare}});
// Sites on genuinely hot paths should hoist obs::trace()/obs::metrics() into
// a local instead (see autonomic/experiment.cpp).
#if defined(AFT_OBS_DISABLED)

#define AFT_TRACE(component, event, ...) static_cast<void>(0)
#define AFT_METRIC_ADD(name, delta) static_cast<void>(0)
#define AFT_METRIC_OBSERVE(name, value) static_cast<void>(0)
#define AFT_OBS_SET_TIME(t) static_cast<void>(0)
#define AFT_SPAN(component, name) static_cast<void>(0)

#else

#define AFT_TRACE(component, event, ...)                                   \
  do {                                                                     \
    if (::aft::obs::TraceSink* aft_obs_sink_ = ::aft::obs::trace())        \
      aft_obs_sink_->emit((component), (event)__VA_OPT__(, __VA_ARGS__));  \
    else                                                                   \
      ::aft::obs::flight_note((component), (event));                       \
  } while (0)

#define AFT_METRIC_ADD(name, delta)                                      \
  do {                                                                   \
    if (::aft::obs::MetricsRegistry* aft_obs_reg_ = ::aft::obs::metrics()) \
      aft_obs_reg_->add((name), (delta));                                \
  } while (0)

/// Feeds one sample into histogram `name` (p50/p99/p999 in the "quantiles"
/// JSON export).  Genuinely hot sites should hoist a Stat& handle instead.
#define AFT_METRIC_OBSERVE(name, value)                                  \
  do {                                                                   \
    if (::aft::obs::MetricsRegistry* aft_obs_reg_ = ::aft::obs::metrics()) \
      aft_obs_reg_->observe((name), (value));                            \
  } while (0)

#define AFT_OBS_SET_TIME(t) ::aft::obs::set_obs_time(t)

#define AFT_OBS_CONCAT2(a, b) a##b
#define AFT_OBS_CONCAT(a, b) AFT_OBS_CONCAT2(a, b)

/// Opens a named span for the rest of the enclosing scope.
#define AFT_SPAN(component, name) \
  ::aft::obs::SpanGuard AFT_OBS_CONCAT(aft_span_, __LINE__)((component), (name))

#endif  // AFT_OBS_DISABLED
