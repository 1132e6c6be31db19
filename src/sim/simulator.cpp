#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::sim {

void Simulator::schedule_at(SimTime when, Action action) {
  if (when < now_) throw std::invalid_argument("Simulator: event in the past");
  const obs::EventId cause = obs::current_cause();
  // Dispatch lag: entries fire exactly at `when`, so the schedule-to-
  // dispatch latency is known here.  Recorded through a cached Stat handle
  // so the steady-state cost is one add, not a map lookup.
  if (obs::MetricsRegistry* reg = obs::metrics(); reg != nullptr) {
    if (reg != lag_registry_ || reg->uid() != lag_registry_uid_) {
      lag_registry_ = reg;
      lag_registry_uid_ = reg->uid();
      lag_stat_ = &reg->stat("sim.dispatch_lag");
    }
    lag_stat_->add(static_cast<double>(when - now_));
  }
  queue_.push(EventKey{when, next_seq_++, cause}, std::move(action));
}

void Simulator::schedule_in(SimTime delay, Action action) {
  schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step_with(obs::TraceSink* sink, obs::FlightRecorder* recorder,
                          obs::MetricsRegistry* registry) {
  if (queue_.empty()) return false;
  // DHeap::pop() surrenders the callable by move: its inline storage is
  // relocated, never copied and never re-allocated.  The key (with the
  // dispatch metadata riding in it) is read off the heap root first.
  const EventKey key = queue_.top_key();
  Action action = queue_.pop();
  now_ = key.when;
  ++executed_;
  // Dispatch hook: stamp the trace clock so every event emitted by the
  // action carries the right simulated time, and reinstate the cause id
  // that was current when this entry was scheduled — the dispatched
  // continuation inherits the provenance of its scheduler.  Per-dispatch
  // records are detail-level (they dominate trace volume on long runs).
  if (sink != nullptr) {
    sink->set_time(now_);
    sink->set_cause(key.cause);
    if (sink->detail()) sink->emit("sim", "dispatch", {{"eseq", key.seq}});
  } else if (recorder != nullptr) {
    recorder->set_time(now_);
  }
  // The metrics clock drives timeline windowing (obs/timeline.hpp), so it
  // advances on every dispatch even when tracing is off.
  if (registry != nullptr) registry->set_time(now_);
  action();
  return true;
}

namespace {

// The flight recorder only matters when no trace sink shadows it (mirrors
// the old per-event lookup order: trace first, flight only on the miss).
obs::FlightRecorder* flight_unless_traced(obs::TraceSink* sink) {
  return sink == nullptr ? obs::flight() : nullptr;
}

}  // namespace

bool Simulator::step() {
  obs::TraceSink* const sink = obs::trace();
  return step_with(sink, flight_unless_traced(sink), obs::metrics());
}

std::uint64_t Simulator::run_until(SimTime until) {
  obs::TraceSink* const sink = obs::trace();
  obs::FlightRecorder* const recorder = flight_unless_traced(sink);
  obs::MetricsRegistry* const registry = obs::metrics();
  std::uint64_t ran = 0;
  while (!queue_.empty() && queue_.top_key().when <= until) {
    step_with(sink, recorder, registry);
    ++ran;
  }
  if (now_ < until) now_ = until;
  return ran;
}

std::uint64_t Simulator::run_all() {
  obs::TraceSink* const sink = obs::trace();
  obs::FlightRecorder* const recorder = flight_unless_traced(sink);
  obs::MetricsRegistry* const registry = obs::metrics();
  std::uint64_t ran = 0;
  while (step_with(sink, recorder, registry)) ++ran;
  return ran;
}

void Simulator::advance_to(SimTime when) {
  if (when < now_) throw std::invalid_argument("Simulator: cannot move clock backwards");
  if (!queue_.empty() && queue_.top_key().when < when) {
    throw std::logic_error("Simulator: advancing past pending events");
  }
  now_ = when;
}

}  // namespace aft::sim
