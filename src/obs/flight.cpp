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

void FlightRecorder::record(std::uint64_t t, std::string_view component,
                            std::string_view event, EventId span,
                            EventId cause) noexcept {
  FlightRecord& slot = ring_[head_];
  slot.t = t;
  slot.component = component;
  slot.event = event;
  slot.span = span;
  slot.cause = cause;
  if (++head_ == ring_.size()) head_ = 0;
  if (size_ < ring_.size()) ++size_;
  ++recorded_;
}

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

thread_local FlightRecorder* tl_flight_override = nullptr;
/// True while a dump replays records into the TraceSink, so the replay's
/// own emits do not re-enter the freshly drained ring.
thread_local bool tl_flight_suppressed = false;

}  // namespace

FlightRecorder* flight() noexcept {
  static const bool enabled = FlightRecorder::enabled();  // AFT_FLIGHT, once
  if (!enabled || tl_flight_suppressed) return nullptr;
  if (tl_flight_override != nullptr) return tl_flight_override;
  static thread_local FlightRecorder tl_default;
  return &tl_default;
}

void set_flight(FlightRecorder* recorder) noexcept {
  tl_flight_override = recorder;
}

void flight_note(std::string_view component, std::string_view event) noexcept {
  if (FlightRecorder* recorder = flight(); recorder != nullptr) {
    recorder->record(recorder->time(), component, event, kNoEvent, kNoEvent);
  }
}

void flight_dump(std::string_view reason) {
  FlightRecorder* recorder = flight();
  if (recorder == nullptr || recorder->empty()) return;
  const std::vector<FlightRecord> records = recorder->snapshot();
  recorder->clear();

  if (TraceSink* sink = trace(); sink != nullptr) {
    tl_flight_suppressed = true;
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
    tl_flight_suppressed = false;
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

#endif  // AFT_OBS_DISABLED

}  // namespace aft::obs
