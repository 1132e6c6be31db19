// Shared vocabulary of the end-to-end benchmark (aft_e2e).
//
// A workload is a {name, setup, run, validate} record in the shape of xnu's
// perf_index stress tests: setup() builds every object of one repetition
// from the seed, run() is the timed region, and validate() reads the public
// counters afterwards, checks the conservation identities, and returns the
// deterministic counts the per-layer metrics are computed from.  Nothing in
// here reaches into the library's internals: the benchmark drives aft only
// through its public functions.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace aft::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) noexcept {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// The workload seed for `base` (the named reference cell's seed) under
/// benchmark seed `seed`; seed 0 reproduces the reference cell exactly.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base,
                                                  std::uint64_t seed) noexcept {
  return base + seed * 1000003u;
}

/// Deterministic counters of one repetition, by name.  Ordered, so the
/// digest of two runs can be compared line by line.
using Counts = std::map<std::string, std::uint64_t, std::less<>>;

/// Output checks of one repetition: every failed expectation is kept, so a
/// broken identity is reported by name instead of only flipping a flag.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

/// What validate() hands back for one repetition.
struct RepResult {
  std::uint64_t ops = 0;      ///< operations attempted (requests, rounds, accesses)
  std::uint64_t refused = 0;  ///< shed by admission control before any work
  std::uint64_t not_ok = 0;   ///< accepted but failed, lost or silently corrupted
  std::uint64_t unaccounted = 0;  ///< ops no outcome counter accounts for
  Counts counts;
};

// --- Allocation counting (alloc.cpp) ---------------------------------------

struct AllocTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Starts counting global operator new calls and bytes from zero.
void alloc_begin() noexcept;
/// Stops counting and returns the tally since alloc_begin().
[[nodiscard]] AllocTally alloc_end() noexcept;

/// Live heap bytes allocated through operator new, and their peak since
/// heap_peak_reset() (which restarts it from the live size).
[[nodiscard]] std::uint64_t heap_live_bytes() noexcept;
void heap_peak_reset() noexcept;
[[nodiscard]] std::uint64_t heap_peak_bytes() noexcept;

// --- Direct spans of the traced pass ---------------------------------------

/// Layer calls the benchmark itself makes and times on the traced pass.
enum class Span : std::uint8_t {
  kMemRead,   ///< EccScrubAccess::read
  kMemWrite,  ///< EccScrubAccess::write
  kInject,    ///< FaultInjector::tick
  kPublish,   ///< EventBus::publish of the SLO publisher
  kFlush,     ///< TraceSink::write_binary + MetricsRegistry::write_json
  kCount,
};

[[nodiscard]] const char* span_name(Span span) noexcept;

/// In-memory span recorder.  Calls shorter than about a microsecond are
/// sampled (every kSampleEvery-th call by index, so the sample is the same
/// on every run); the cost of taking the two timestamps, calibrated once, is
/// subtracted from each sample.  Raw spans are kept up to a cap and written
/// out when the benchmark ends.
class Spans {
 public:
  static constexpr std::uint32_t kSampleEvery = 8;

  Spans();

  /// True when the next call of `span` should be timed: every call of the
  /// rare kinds, every kSampleEvery-th call of the sub-microsecond ones.
  [[nodiscard]] bool due(Span span) noexcept {
    if (span != Span::kMemRead && span != Span::kMemWrite &&
        span != Span::kInject) {
      return true;
    }
    return calls_[index(span)]++ % kSampleEvery == 0;
  }
  void add(Span span, Clock::time_point t0, Clock::time_point t1);

  /// Sim queue depth sample, for the ladder's kernel rung.
  void depth(std::size_t pending) noexcept {
    depth_sum_ += pending;
    ++depth_n_;
  }
  [[nodiscard]] double mean_depth() const noexcept {
    return depth_n_ == 0 ? 0.0
                         : static_cast<double>(depth_sum_) /
                               static_cast<double>(depth_n_);
  }

  [[nodiscard]] std::uint64_t count(Span span) const noexcept {
    return count_[index(span)];
  }
  /// Mean duration of the recorded spans of `span`, timer cost removed.
  [[nodiscard]] double mean_ns(Span span) const noexcept;

  /// Marks the start of a repetition (the rep index is stored per span).
  void next_rep() noexcept { ++rep_; }

  /// Tab-separated `span rep start_ns duration_ns`, one line per kept span.
  void write_tsv(const std::string& path) const;

 private:
  static constexpr std::size_t kKeep = 200000;
  struct Raw {
    Span span;
    std::uint32_t rep;
    double start_ns;
    double dur_ns;
  };
  [[nodiscard]] static constexpr std::size_t index(Span span) noexcept {
    return static_cast<std::size_t>(span);
  }

  Clock::time_point origin_;
  double timer_ns_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(Span::kCount)> calls_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Span::kCount)> count_{};
  std::array<double, static_cast<std::size_t>(Span::kCount)> total_ns_{};
  std::vector<Raw> raw_;
  std::uint32_t rep_ = 0;
  std::uint64_t depth_sum_ = 0;
  std::uint64_t depth_n_ = 0;
};

/// Times `fn()` as one `span` when `spans` is set and the call is due.
template <typename Fn>
decltype(auto) timed(Spans* spans, Span span, Fn&& fn) {
  if (spans == nullptr || !spans->due(span)) return fn();
  const Clock::time_point t0 = Clock::now();
  struct Stop {
    Spans* spans;
    Span span;
    Clock::time_point t0;
    ~Stop() { spans->add(span, t0, Clock::now()); }
  } stop{spans, span, t0};
  return fn();
}

// --- Workloads -------------------------------------------------------------

/// One repetition's objects; each workload derives its own.
class State {
 public:
  virtual ~State() = default;
};

struct Workload {
  const char* name;
  std::unique_ptr<State> (*setup)(std::uint64_t seed, bool smoke);
  void (*run)(State& state, Spans* spans);
  RepResult (*validate)(State& state, std::uint64_t seed, Checks& checks);
};

[[nodiscard]] const std::vector<Workload>& traffic_workloads();
[[nodiscard]] const Workload& organ_workload();
[[nodiscard]] const Workload& memory_workload();

// --- Layer ladder (ladder.cpp) ---------------------------------------------

/// Groups of ladder rungs, as bits of LadderShape::uses.
enum RungGroup : unsigned {
  kRungSim = 1u << 0,
  kRungNet = 1u << 1,  ///< link, rpc, beat, cluster, load (need sim and vote)
  kRungVote = 1u << 2,
  kRungObs = 1u << 3,
  kRungMem = 1u << 4,
};

/// The e2e pass's shape the rungs reproduce.
struct LadderShape {
  double depth = 16;        ///< mean pending sim events
  std::size_t arity = 3;    ///< farm arity
  std::size_t pool = 5;     ///< replica pool of the cluster rung
  unsigned uses = 0;        ///< RungGroups the workload's attribution needs
  bool smoke = false;       ///< tiny rung sizes
};

/// Self time of every layer, in ns per unit of that layer's own work.
struct LayerTimes {
  double sim_event = 0;      ///< per dispatched event
  double link_frame = 0;     ///< per frame sent and delivered
  double rpc_call = 0;       ///< per completed Endpoint::call
  double vote_round = 0;     ///< per VotingFarm::invoke
  double observe = 0;        ///< per ReflectiveSwitchboard::observe
  double beat = 0;           ///< per heartbeat: emit, membership, windows
  double cluster_round = 0;  ///< per ReplicatedService round
  double load_request = 0;   ///< per ClientPopulation request
  double bus_publish = 0;    ///< per EventBus::publish to a bound switchboard
  double obs_emit = 0;       ///< per TraceSink::emit
  double obs_flush = 0;      ///< per record serialised (binary + metrics json)
  double mem_read = 0;       ///< per EccScrubAccess::read
  double mem_write = 0;      ///< per EccScrubAccess::write
  double scrub_word = 0;     ///< per word of EccScrubAccess::scrub_step
  double inject_tick = 0;    ///< per FaultInjector::tick

  /// Every self time under the per-layer metric name it is reported as.
  [[nodiscard]] std::vector<std::pair<const char*, double>> all() const;
};

/// The rungs, built once at `shape`; round() times each rung once and
/// computes that round's self times, self_times() is the median over the
/// rounds after the first (which only warms the rungs up).  Rungs outside
/// `shape.uses` enter no attribution of the workload and are timed in the
/// warm-up and the first three timed rounds only; they are still reported,
/// since every workload reports every per-layer metric.
class Ladder {
 public:
  explicit Ladder(const LadderShape& shape);
  ~Ladder();
  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  void round();
  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_.size(); }
  [[nodiscard]] LayerTimes self_times() const;

 private:
  struct Rungs;
  LadderShape shape_;
  unsigned uses_;  ///< shape.uses with what the net rungs build on
  std::unique_ptr<Rungs> rungs_;
  std::vector<LayerTimes> rounds_;
  bool warm_ = false;
};

}  // namespace aft::e2e
