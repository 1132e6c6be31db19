#include "obs/flight.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/obs.hpp"

namespace aft::obs {

namespace {

/// As a JSON field value: the id itself, or -1 for "none" (keeps dump lines
/// uniformly numeric and trivially parseable).
std::int64_t id_or_minus_one(EventId id) noexcept {
  return id == kNoEvent ? -1 : static_cast<std::int64_t>(id);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t idx = (head_ + ring_.size() - size_ + i) % ring_.size();
    out.push_back(ring_[idx]);
  }
  return out;
}

void FlightRecorder::render_jsonl(std::string& out, std::string_view reason,
                                  const std::vector<FlightRecord>& records) {
  out += "{\"component\":\"flight\",\"event\":\"dump\",\"reason\":";
  append_json_string(out, reason);
  out += ",\"records\":";
  append_u64(out, records.size());
  out += "}\n";
  for (const FlightRecord& r : records) {
    out += "{\"t\":";
    append_u64(out, r.t);
    out += ",\"component\":";
    append_json_string(out, r.component);
    out += ",\"event\":";
    append_json_string(out, r.event);
    out += ",\"span\":";
    append_i64(out, id_or_minus_one(r.span));
    out += ",\"cause\":";
    append_i64(out, id_or_minus_one(r.cause));
    out += "}\n";
  }
}

std::size_t FlightRecorder::default_capacity() {
  static const std::size_t capacity = [] {
    if (const char* env = std::getenv("AFT_FLIGHT")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && v >= 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{256};
  }();
  return capacity;
}

bool FlightRecorder::enabled() { return default_capacity() > 0; }

#if !defined(AFT_OBS_DISABLED)

namespace {

/// The thread's own recorder, built on its first record; nullptr under
/// AFT_FLIGHT=0.
FlightRecorder* thread_default() noexcept {
  static const bool enabled = FlightRecorder::enabled();  // AFT_FLIGHT, once
  if (!enabled) return nullptr;
  static thread_local FlightRecorder tl_default;
  return &tl_default;
}

}  // namespace

void detail::install_thread_flight(std::uint64_t t, Name component,
                                   Name event, EventId span,
                                   EventId cause) noexcept {
  t_flight = thread_default();
  if (t_flight != nullptr) t_flight->record(t, component, event, span, cause);
}

void set_flight(FlightRecorder* recorder) noexcept {
  if (recorder == nullptr) {
    detail::t_flight = &FlightRecorder::placeholder;
  } else {
    detail::t_flight = FlightRecorder::enabled() ? recorder : nullptr;
  }
}

void flight_dump(std::string_view reason) {
  FlightRecorder* recorder = flight();
  if (recorder == nullptr || recorder->empty()) return;
  const std::vector<FlightRecord> records = recorder->snapshot();
  recorder->clear();

  if (TraceSink* sink = trace(); sink != nullptr) {
    // Null the recorder while the records replay, so the replay's own
    // emits do not re-enter the freshly drained ring.
    struct Suppress {
      FlightRecorder* recorder;
      ~Suppress() { detail::t_flight = recorder; }
    } const suppress{recorder};
    detail::t_flight = nullptr;
    sink->emit("flight", "dump",
               {{"reason", reason}, {"records", records.size()}});
    for (const FlightRecord& r : records) {
      sink->emit("flight", "record",
                 {{"rt", r.t},
                  {"rcomponent", r.component},
                  {"revent", r.event},
                  {"rspan", id_or_minus_one(r.span)},
                  {"rcause", id_or_minus_one(r.cause)}});
    }
    return;
  }

  std::string out;
  FlightRecorder::render_jsonl(out, reason, records);
  static std::mutex dump_mutex;
  const std::scoped_lock lock(dump_mutex);
  if (const char* path = std::getenv("AFT_FLIGHT_PATH");
      path != nullptr && *path != '\0') {
    if (std::FILE* f = std::fopen(path, "ae")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      return;
    }
  }
  std::fwrite(out.data(), 1, out.size(), stderr);
}

#else

// Only a thread's placeholder recorder reaches this, and with the obs
// plane compiled out no thread has one.
void detail::install_thread_flight(std::uint64_t, Name, Name, EventId,
                                   EventId) noexcept {}

#endif  // AFT_OBS_DISABLED

}  // namespace aft::obs
