// Named counters, gauges, and histogram-backed stats with one-call JSON
// export — the quantitative half of the observability plane (trace.hpp is
// the qualitative half).
//
// Every stat carries both a Welford RunningStats (mean/stddev, the legacy
// shape) and a util::LogHistogram (exact-deterministic p50/p99/p999/max),
// and any metric can additionally be tracked as a sim-time-windowed
// Timeline (timeline.hpp) for the "timelines" JSON section.
//
// Ordering and formatting are deterministic: names live in std::map (sorted
// serialization), integers and doubles render via std::to_chars, histogram
// counts are integers, and merge() is associative over campaign jobs
// applied in job-index order, so the exported JSON — quantiles and
// timelines included — is bit-identical for any AFT_THREADS value.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "obs/clock.hpp"
#include "obs/timeline.hpp"
#include "util/log_histogram.hpp"
#include "util/stats.hpp"

namespace aft::obs {

/// One named distribution: Welford accumulator + log-bucketed histogram +
/// optional timeline link.  Obtained from MetricsRegistry::stat() as a
/// stable handle for hoisting the name lookup out of hot loops (std::map
/// references are never invalidated by later inserts).
class Stat {
 public:
  void add(double v) noexcept {
    welford_.add(v);
    const std::uint64_t ticks = util::LogHistogram::clamp(v);
    hist_.add(ticks);
    if (timeline_ != nullptr) timeline_->observe(obs_time(), ticks);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return welford_.count(); }
  [[nodiscard]] double mean() const noexcept { return welford_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return welford_.stddev(); }
  [[nodiscard]] double min() const noexcept { return welford_.min(); }
  [[nodiscard]] double max() const noexcept { return welford_.max(); }
  /// Exact-deterministic quantile in the clamped tick domain.
  [[nodiscard]] std::uint64_t quantile(double p) const noexcept {
    return hist_.quantile(p);
  }
  [[nodiscard]] const util::LogHistogram& histogram() const noexcept {
    return hist_;
  }

 private:
  friend class MetricsRegistry;
  util::RunningStats welford_;
  util::LogHistogram hist_;
  Timeline* timeline_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  /// Increments counter `name` by `delta` (creating it at 0 on first use).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Last-writer-wins scalar (e.g. a configuration knob or final level).
  void set_gauge(std::string_view name, double value);

  /// Feeds one sample into histogram `name`.
  void observe(std::string_view name, double value);

  /// Stable handle to a stat, for hoisting the name lookup out of hot loops.
  [[nodiscard]] Stat& stat(std::string_view name);

  /// Process-unique id, so callers caching a Stat* handle can tell a fresh
  /// registry constructed at a recycled address from the one they hoisted
  /// the handle out of (sim::Simulator does this for its dispatch-lag stat).
  [[nodiscard]] std::uint64_t uid() const noexcept { return uid_; }

  /// Registers sim-time-windowed tracking for stat `name` (per-window
  /// count/min/max/p50/p99/p999).  Idempotent for a given name; the window
  /// width of the first registration wins.
  Timeline& timeline(std::string_view name, std::uint64_t window_ticks);
  /// Same for a counter (per-window delta) or a gauge (per-window last).
  Timeline& timeline_counter(std::string_view name, std::uint64_t window_ticks);
  Timeline& timeline_gauge(std::string_view name, std::uint64_t window_ticks);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] const Stat* find_stat(std::string_view name) const;
  [[nodiscard]] const Timeline* find_timeline(std::string_view name) const;
  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && stats_.empty();
  }

  /// Folds `other` in: counters sum, gauges take `other`'s value (jobs merge
  /// in index order, so "last writer" is the highest job index that set the
  /// gauge), stats merge via parallel Welford + bucket-wise histogram adds,
  /// timelines merge window-by-window.
  void merge(const MetricsRegistry& other);

  /// {"counters":{...},"gauges":{...},"stats":{...},"quantiles":{...},
  ///  "timelines":{...}} with keys sorted.  Stats omit min/max when
  /// count == 0 (an empty accumulator has no extremes to report);
  /// "quantiles" carries integer count/p50/p99/p999/max per stat.
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string json() const;

 private:
  struct Counter {
    std::uint64_t value = 0;
    Timeline* timeline = nullptr;
  };
  struct Gauge {
    double value = 0.0;
    Timeline* timeline = nullptr;
  };

  /// Re-points every stat/counter/gauge timeline link into our own
  /// timelines_ map (after merge copies new timelines in).
  void relink_timelines();

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Stat, std::less<>> stats_;
  std::map<std::string, Timeline, std::less<>> timelines_;
  std::uint64_t uid_;
};

}  // namespace aft::obs
