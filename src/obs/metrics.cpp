#include "obs/metrics.hpp"

#include <atomic>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"  // append_json_string / append_json_double / append_u64

namespace aft::obs {

namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MetricsRegistry::MetricsRegistry() : uid_(next_registry_uid()) {}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  const auto it = counters_.find(name);
  Counter& c = it != counters_.end()
                   ? it->second
                   : counters_.emplace(std::string(name), Counter{})
                         .first->second;
  c.value += delta;
  if (c.timeline != nullptr) c.timeline->observe(obs_time(), delta);
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  const auto it = gauges_.find(name);
  Gauge& g = it != gauges_.end()
                 ? it->second
                 : gauges_.emplace(std::string(name), Gauge{}).first->second;
  g.value = value;
  if (g.timeline != nullptr) {
    g.timeline->observe(obs_time(), util::LogHistogram::clamp(value));
  }
}

void MetricsRegistry::observe(std::string_view name, double value) {
  stat(name).add(value);
}

Stat& MetricsRegistry::stat(std::string_view name) {
  const auto it = stats_.find(name);
  if (it != stats_.end()) return it->second;
  return stats_.emplace(std::string(name), Stat{}).first->second;
}

Timeline& MetricsRegistry::timeline(std::string_view name,
                                    std::uint64_t window_ticks) {
  const auto it = timelines_.find(name);
  if (it != timelines_.end()) {
    stat(name).timeline_ = &it->second;
    return it->second;
  }
  Timeline& t = timelines_
                    .emplace(std::string(name),
                             Timeline(window_ticks, TimelineKind::kStat))
                    .first->second;
  stat(name).timeline_ = &t;
  return t;
}

Timeline& MetricsRegistry::timeline_counter(std::string_view name,
                                            std::uint64_t window_ticks) {
  auto it = timelines_.find(name);
  if (it == timelines_.end()) {
    it = timelines_
             .emplace(std::string(name),
                      Timeline(window_ticks, TimelineKind::kCounter))
             .first;
  }
  auto cell = counters_.find(name);
  if (cell == counters_.end()) {
    cell = counters_.emplace(std::string(name), Counter{}).first;
  }
  cell->second.timeline = &it->second;
  return it->second;
}

Timeline& MetricsRegistry::timeline_gauge(std::string_view name,
                                          std::uint64_t window_ticks) {
  auto it = timelines_.find(name);
  if (it == timelines_.end()) {
    it = timelines_
             .emplace(std::string(name),
                      Timeline(window_ticks, TimelineKind::kGauge))
             .first;
  }
  auto cell = gauges_.find(name);
  if (cell == gauges_.end()) {
    cell = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  cell->second.timeline = &it->second;
  return it->second;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value;
}

const Stat* MetricsRegistry::find_stat(std::string_view name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

const Timeline* MetricsRegistry::find_timeline(std::string_view name) const {
  const auto it = timelines_.find(name);
  return it == timelines_.end() ? nullptr : &it->second;
}

void MetricsRegistry::relink_timelines() {
  for (auto& [name, t] : timelines_) {
    switch (t.kind()) {
      case TimelineKind::kStat:
        stat(name).timeline_ = &t;
        break;
      case TimelineKind::kCounter: {
        auto it = counters_.find(name);
        if (it == counters_.end()) {
          it = counters_.emplace(name, Counter{}).first;
        }
        it->second.timeline = &t;
        break;
      }
      case TimelineKind::kGauge: {
        auto it = gauges_.find(name);
        if (it == gauges_.end()) {
          it = gauges_.emplace(name, Gauge{}).first;
        }
        it->second.timeline = &t;
        break;
      }
    }
  }
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].value += c.value;
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].value = g.value;
  }
  for (const auto& [name, s] : other.stats_) {
    Stat& mine = stat(name);
    mine.welford_.merge(s.welford_);
    mine.hist_.merge(s.hist_);
  }
  for (const auto& [name, t] : other.timelines_) {
    const auto it = timelines_.find(name);
    if (it != timelines_.end()) {
      it->second.merge(t);
    } else {
      timelines_.emplace(name, Timeline(t.window_ticks(), t.kind()))
          .first->second.merge(t);
    }
  }
  // Map inserts above may have created cells whose timeline links point
  // nowhere (or, for timelines copied from `other`, at other's storage —
  // never: we build fresh Timelines and merge, links were never copied).
  // Re-point every link at our own timelines_ entries.
  relink_timelines();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::string buf;
  buf += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) buf.push_back(',');
    first = false;
    append_json_string(buf, name);
    buf.push_back(':');
    append_u64(buf, c.value);
  }
  buf += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) buf.push_back(',');
    first = false;
    append_json_string(buf, name);
    buf.push_back(':');
    append_json_double(buf, g.value);
  }
  buf += "},\"stats\":{";
  first = true;
  for (const auto& [name, s] : stats_) {
    if (!first) buf.push_back(',');
    first = false;
    append_json_string(buf, name);
    buf += ":{\"count\":";
    append_u64(buf, s.count());
    buf += ",\"mean\":";
    append_json_double(buf, s.mean());
    buf += ",\"stddev\":";
    append_json_double(buf, s.stddev());
    // An empty accumulator has no extremes: omit min/max rather than let
    // RunningStats' 0.0 placeholder read as a real sample.
    if (s.count() > 0) {
      buf += ",\"min\":";
      append_json_double(buf, s.min());
      buf += ",\"max\":";
      append_json_double(buf, s.max());
    }
    buf.push_back('}');
  }
  buf += "},\"quantiles\":{";
  first = true;
  for (const auto& [name, s] : stats_) {
    if (!first) buf.push_back(',');
    first = false;
    append_json_string(buf, name);
    buf += ":{\"count\":";
    append_u64(buf, s.count());
    if (s.count() > 0) {
      buf += ",\"p50\":";
      append_u64(buf, s.quantile(0.5));
      buf += ",\"p99\":";
      append_u64(buf, s.quantile(0.99));
      buf += ",\"p999\":";
      append_u64(buf, s.quantile(0.999));
      buf += ",\"max\":";
      append_u64(buf, s.histogram().max());
    }
    buf.push_back('}');
  }
  buf += "},\"timelines\":{";
  first = true;
  for (const auto& [name, t] : timelines_) {
    if (!first) buf.push_back(',');
    first = false;
    append_json_string(buf, name);
    buf += ":{\"kind\":";
    switch (t.kind()) {
      case TimelineKind::kStat: buf += "\"stat\""; break;
      case TimelineKind::kCounter: buf += "\"counter\""; break;
      case TimelineKind::kGauge: buf += "\"gauge\""; break;
    }
    buf += ",\"window\":";
    append_u64(buf, t.window_ticks());
    buf += ",\"windows\":[";
    bool wfirst = true;
    for (const Timeline::WindowView& w : t.snapshot()) {
      if (!wfirst) buf.push_back(',');
      wfirst = false;
      buf += "{\"w\":";
      append_u64(buf, w.index);
      switch (t.kind()) {
        case TimelineKind::kStat:
          buf += ",\"count\":";
          append_u64(buf, w.count);
          buf += ",\"sum\":";
          append_u64(buf, w.sum);
          buf += ",\"min\":";
          append_u64(buf, w.min);
          buf += ",\"max\":";
          append_u64(buf, w.max);
          buf += ",\"p50\":";
          append_u64(buf, w.p50);
          buf += ",\"p99\":";
          append_u64(buf, w.p99);
          buf += ",\"p999\":";
          append_u64(buf, w.p999);
          break;
        case TimelineKind::kCounter:
          buf += ",\"delta\":";
          append_u64(buf, w.sum);
          break;
        case TimelineKind::kGauge:
          buf += ",\"last\":";
          append_u64(buf, w.last);
          break;
      }
      buf.push_back('}');
    }
    buf += "]}";
  }
  buf += "}}\n";
  out << buf;
}

std::string MetricsRegistry::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace aft::obs
