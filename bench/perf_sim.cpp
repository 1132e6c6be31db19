// Perf harness for the notification hot path: the two-tier InlineFn kernel
// with the interned/batched EventBus vs a faithful reimplementation of
// their predecessors (std::priority_queue of entries holding std::function;
// string-keyed std::map bus with per-publish snapshot vectors).  Emits
// machine-readable BENCH_sim.json (path overridable via AFT_BENCH_JSON),
// mirroring perf_ecc.
//
// Acceptance gates for this bench in a Release build:
//   - schedule+dispatch throughput of the kernel >= 2x the reference on the
//     client-shaped workload (captures wider than std::function's 16-byte
//     SBO, like every in-tree daemon continuation);
//   - daemon_mesh — the fig6 steady state driven through the bus, 64
//     publishing daemons fanning out to subscribed handlers — >= 2x the
//     reference stack end to end.
// The bench also measures full-detail trace overhead on the mesh (target
// <10%), the binary-vs-JSONL trace size ratio, and two ungated kernel
// profiles against the reference: the fig7 daemon/burst shape and the
// open-loop timer mix (thousands of long deadline timers parked beside
// short-delay traffic), plus an ungated kernel-only row: requests whose
// replies cancel their deadlines against requests whose deadlines fire
// stale (timer_cancel).  Two more ungated rows price the obs plane's
// static names: metric_add (one AFT_METRIC_ADD through its site handle
// against a by-name MetricsRegistry::add) and trace_emit (ns per
// link-send-shaped TraceSink::emit).  The process still exits
// 0 in non-Release builds, where the gates are informational.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/event_bus.hpp"
#include "bench_util.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/log_histogram.hpp"
#include "util/stats.hpp"

namespace {

using aft::arch::Message;
using aft::bench::best_time;
using aft::bench::Clock;
using aft::bench::json_number;
using aft::bench::kRepeats;
using aft::bench::seconds_since;
using aft::sim::SimTime;

/// Cheap fold that keeps the optimizer from discarding the work.
std::uint64_t g_sink = 0;

// --- Reference kernel --------------------------------------------------------
//
// The pre-PR-4 Simulator, preserved move for move: a std::priority_queue
// whose entries carry a std::function, with the dispatch path forced
// through priority_queue::top() — which is const, so the old kernel paid a
// full entry COPY (and a std::function re-allocation for any capture over
// 16 bytes) per event on top of the allocation per schedule.

class RefSimulator {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  void schedule_at(SimTime when, Action action) {
    // Same causality snapshot the real kernel performs (the predecessor
    // carried these obs hooks too — omitting them here would flatter the
    // reference).
    std::uint64_t cause = aft::obs::kNoEvent;
#if !defined(AFT_OBS_DISABLED)
    if (const aft::obs::TraceSink* sink = aft::obs::trace(); sink != nullptr) {
      cause = sink->cause();
    }
#endif
    queue_.push(Entry{when, next_seq_++, cause, std::move(action)});
  }
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  bool step() {
    if (queue_.empty()) return false;
    Entry e = queue_.top();  // const ref: copies entry + callable
    queue_.pop();
    now_ = e.when;
    ++executed_;
#if !defined(AFT_OBS_DISABLED)
    aft::obs::set_obs_time(now_);
    if (aft::obs::TraceSink* sink = aft::obs::trace(); sink != nullptr) {
      sink->set_cause(e.cause);
      if (sink->detail()) sink->emit("sim", "dispatch", {{"eseq", e.seq}});
    }
#endif
    e.action();
    return true;
  }

  std::uint64_t run_until(SimTime until) {
    std::uint64_t ran = 0;
    while (!queue_.empty() && queue_.top().when <= until) {
      step();
      ++ran;
    }
    if (now_ < until) now_ = until;
    return ran;
  }

  std::uint64_t run_all() {
    std::uint64_t ran = 0;
    while (step()) ++ran;
    return ran;
  }

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
    Action action;
  };
  struct Later {  // priority_queue is a max-heap: invert the order
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

// --- Reference event bus -----------------------------------------------------
//
// The pre-PR EventBus, preserved move for move: string-keyed std::map of
// (id, std::function) subscription lists, a std::set of live ids consulted
// per delivery, and a per-publish snapshot vector of handler COPIES — the
// costs the interned SoA bus removes.  The obs hooks are kept too: the old
// bus emitted one "publish" record per message, and omitting that here
// would flatter the reference in traced comparisons.

class RefEventBus {
 public:
  using Handler = std::function<void(const Message&)>;
  using SubscriptionId = std::uint64_t;

  SubscriptionId subscribe(const std::string& topic, Handler handler) {
    const SubscriptionId id = next_id_++;
    by_topic_[topic].push_back(Subscription{id, std::move(handler)});
    live_.insert(id);
    return id;
  }

  SubscriptionId subscribe_all(Handler handler) {
    const SubscriptionId id = next_id_++;
    wildcard_.push_back(Subscription{id, std::move(handler)});
    live_.insert(id);
    return id;
  }

  void unsubscribe(SubscriptionId id) {
    if (live_.erase(id) == 0) return;
    auto drop = [id](std::vector<Subscription>& subs) {
      subs.erase(
          std::remove_if(subs.begin(), subs.end(),
                         [id](const Subscription& s) { return s.id == id; }),
          subs.end());
    };
    for (auto it = by_topic_.begin(); it != by_topic_.end();) {
      drop(it->second);
      it = it->second.empty() ? by_topic_.erase(it) : std::next(it);
    }
    drop(wildcard_);
  }

  std::size_t publish(const Message& message) {
    ++published_;
    std::size_t delivered = 0;
    std::vector<std::pair<SubscriptionId, Handler>> to_run;
    if (const auto it = by_topic_.find(message.topic); it != by_topic_.end()) {
      for (const auto& s : it->second) to_run.emplace_back(s.id, s.handler);
    }
    for (const auto& s : wildcard_) to_run.emplace_back(s.id, s.handler);
#if !defined(AFT_OBS_DISABLED)
    aft::obs::TraceSink* const sink = aft::obs::trace();
    aft::obs::EventId prev_cause = aft::obs::kNoEvent;
    bool cause_installed = false;
    if (sink != nullptr) {
      const aft::obs::EventId ev =
          sink->emit("arch.bus", "publish",
                     {{"topic", message.topic},
                      {"source", message.source},
                      {"subscribers", to_run.size()}});
      if (ev != aft::obs::kNoEvent) {
        prev_cause = sink->cause();
        sink->set_cause(ev);
        cause_installed = true;
      }
    }
#endif
    for (const auto& [id, handler] : to_run) {
      if (!live_.contains(id)) continue;
      handler(message);
      ++delivered;
    }
#if !defined(AFT_OBS_DISABLED)
    if (cause_installed) sink->set_cause(prev_cause);
#endif
    return delivered;
  }

  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }

 private:
  struct Subscription {
    SubscriptionId id;
    Handler handler;
  };

  std::map<std::string, std::vector<Subscription>> by_topic_;
  std::vector<Subscription> wildcard_;
  std::set<SubscriptionId> live_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
};

// --- Workloads ---------------------------------------------------------------
//
// Each workload is templated on the kernel (and bus) so both sides run the
// same client code; only the machinery underneath differs.

/// Client-shaped one-shot continuation: 48 bytes of capture — the width of
/// the heartbeat check chain (this + std::string channel + epoch), the
/// widest in-tree scheduling client and the shape the kernel's 64-byte
/// inline budget was sized for.  Far past std::function's 16-byte SBO, so
/// the reference pays its allocation per schedule and per top() copy, just
/// as the old kernel did for every heartbeat window.
struct Shot {
  std::uint64_t* acc;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t pad[3] = {0, 0, 0};
  void operator()() const { *acc ^= a + b; }
};

static_assert(sizeof(Shot) == 48);
static_assert(aft::sim::Simulator::fits_inline<Shot>);

/// Schedule-then-drain throughput: `batches` rounds of `kBatch` one-shot
/// events over a small time window, drained with run_all.  Returns events
/// per second.
template <typename Sim>
double schedule_dispatch_rate(std::uint64_t batches) {
  constexpr std::uint64_t kBatch = 256;
  const double secs = best_time([&] {
    Sim sim;
    std::uint64_t acc = 0;
    for (std::uint64_t round = 0; round < batches; ++round) {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        sim.schedule_in(i % 11, Shot{&acc, round, i});
      }
      sim.run_all();
    }
    g_sink ^= acc;
  });
  return static_cast<double>(batches * kBatch) / secs;
}

/// Self-rescheduling periodic daemon used by the fig7 workload below.
template <typename Sim>
struct Daemon {
  Sim* sim;
  SimTime period;
  std::uint64_t fires = 0;
  void arm() {
    sim->schedule_in(period, [this] {
      ++fires;
      arm();
    });
  }
};

// --- daemon_mesh: the fig6 steady state driven through the bus ---------------
//
// 64 periodic daemons, each publishing a kFanout-message notification burst
// on its own topic every period; kSubsPerTopic subscribed handlers per
// topic plus one wildcard collector.  The kernel side publishes through
// publish_batch with a pre-interned TopicId (the new API); the reference
// side publishes message by message through the string-keyed map bus (the
// only API it has).  Throughput is bus messages per second.

constexpr std::uint64_t kMeshDaemons = 64;
constexpr std::uint64_t kSubsPerTopic = 4;
constexpr std::uint64_t kFanout = 256;

template <typename Sim, typename Bus, bool UseBatch>
struct MeshDaemon {
  Sim* sim;
  Bus* bus;
  SimTime period;
  aft::arch::TopicId topic;
  const std::vector<Message>* batch;
  void arm() {
    auto fire = [this] {
      if constexpr (UseBatch) {
        bus->publish_batch(topic, std::span<const Message>(*batch));
      } else {
        for (const Message& m : *batch) bus->publish(m);
      }
      arm();
    };
    static_assert(aft::sim::Simulator::fits_inline<decltype(fire)>);
    sim->schedule_in(period, std::move(fire));
  }
};

struct MeshRun {
  double secs = 1e300;
  std::uint64_t messages = 0;
};

template <typename Sim, typename Bus, bool UseBatch>
MeshRun bus_mesh_run(SimTime horizon, bool traced,
                     std::string* jsonl_out = nullptr,
                     std::string* bin_out = nullptr) {
  MeshRun run;
  for (int r = -1; r < kRepeats; ++r) {  // r == -1: untimed warmup pass
    Sim sim;
    Bus bus;
    std::optional<aft::obs::TraceSink> sink;
    std::optional<aft::obs::ScopedObs> scope;
    if (traced) {
      sink.emplace();
      sink->set_detail(true);
      scope.emplace(&*sink, nullptr);
    }
    std::uint64_t acc = 0;
    std::vector<std::string> topics;
    std::vector<std::vector<Message>> batches;
    std::vector<MeshDaemon<Sim, Bus, UseBatch>> mesh;
    topics.reserve(kMeshDaemons);
    batches.reserve(kMeshDaemons);
    mesh.reserve(kMeshDaemons);
    for (std::uint64_t d = 0; d < kMeshDaemons; ++d) {
      topics.push_back("daemon-" + std::to_string(d));
      for (std::uint64_t s = 0; s < kSubsPerTopic; ++s) {
        bus.subscribe(topics.back(), [&acc](const Message& m) {
          acc += m.payload.size();
        });
      }
      std::vector<Message> batch(kFanout);
      for (std::uint64_t i = 0; i < kFanout; ++i) {
        batch[i] = Message{topics.back(), "mesh", "notify"};
      }
      batches.push_back(std::move(batch));
    }
    bus.subscribe_all([&acc](const Message&) { ++acc; });
    for (std::uint64_t d = 0; d < kMeshDaemons; ++d) {
      MeshDaemon<Sim, Bus, UseBatch> daemon{&sim, &bus, 1 + d % 13, 0,
                                            &batches[d]};
      if constexpr (UseBatch) {
        daemon.topic = bus.find_topic(topics[d]);
      }
      mesh.push_back(daemon);
      mesh.back().arm();
    }
    const auto t0 = Clock::now();
    sim.run_until(horizon);
    const double secs = seconds_since(t0);
    g_sink ^= acc;
    if (r >= 0) {
      run.secs = std::min(run.secs, secs);
      run.messages = bus.published();
    }
    if (r == kRepeats - 1 && sink && jsonl_out != nullptr &&
        bin_out != nullptr) {
      *jsonl_out = sink->jsonl();
      *bin_out = sink->binary();
    }
  }
  return run;
}

/// Fig. 7-shaped long run: a few periodic daemons plus a controller that
/// fires reconfiguration bursts (a fan of near-future one-shots) every 100
/// ticks — the schedule profile of the redundancy-histogram experiment.
template <typename Sim>
struct BurstController {
  Sim* sim;
  std::uint64_t* acc;
  std::uint64_t bursts = 0;
  void arm() {
    sim->schedule_in(100, [this] {
      ++bursts;
      for (std::uint64_t i = 0; i < 32; ++i) {
        sim->schedule_in(1 + i % 8, Shot{acc, bursts, i});
      }
      arm();
    });
  }
};

template <typename Sim>
double fig7_shape_rate(SimTime horizon) {
  double secs = 1e300;
  std::uint64_t events = 0;
  for (int r = -1; r < kRepeats; ++r) {  // r == -1: untimed warmup pass
    Sim sim;
    std::uint64_t acc = 0;
    std::vector<Daemon<Sim>> mesh;
    mesh.reserve(8);
    for (std::uint64_t d = 0; d < 8; ++d) {
      mesh.push_back(Daemon<Sim>{&sim, 2 + d % 5, 0});
      mesh.back().arm();
    }
    BurstController<Sim> controller{&sim, &acc, 0};
    controller.arm();
    const auto t0 = Clock::now();
    events = sim.run_until(horizon);
    if (r >= 0) secs = std::min(secs, seconds_since(t0));
    g_sink ^= acc;
    for (const auto& d : mesh) g_sink ^= d.fires;
  }
  return static_cast<double>(events) / secs;
}

// --- timer_mix: the open-loop front door's schedule profile -----------------
//
// One arrival every 2 ticks parks a 5000-tick client deadline timer (the
// Shot shape) and sets off a request: a chain of 12 short hops, 1..8 ticks
// apart, like the fan-out/vote/reply traffic a request causes.  Nearly
// every deadline fires as a no-op long after its request completed, so
// ~2.5k long timers stay parked under the short-delay traffic — the shape
// that sank a single heap's sift cost on bench/e2e's open_loop.

constexpr SimTime kMixDeadline = 5000;

template <typename Sim>
struct MixHop {
  Sim* sim;
  std::uint64_t* acc;
  std::uint64_t left;
  void operator()() const {
    *acc += left;
    if (left > 0) sim->schedule_in(1 + left % 8, MixHop{sim, acc, left - 1});
  }
};

template <typename Sim>
struct MixArrivals {
  Sim* sim;
  std::uint64_t* acc;
  std::uint64_t next = 0;
  void arm() {
    sim->schedule_in(2, [this] {
      ++next;
      sim->schedule_in(kMixDeadline, Shot{acc, next, 0});
      sim->schedule_in(1, MixHop<Sim>{sim, acc, 12});
      arm();
    });
  }
};

template <typename Sim>
double timer_mix_rate(SimTime horizon) {
  double secs = 1e300;
  std::uint64_t events = 0;
  for (int r = -1; r < kRepeats; ++r) {  // r == -1: untimed warmup pass
    Sim sim;
    std::uint64_t acc = 0;
    MixArrivals<Sim> arrivals{&sim, &acc};
    arrivals.arm();
    const auto t0 = Clock::now();
    events = sim.run_until(horizon);
    if (r >= 0) secs = std::min(secs, seconds_since(t0));
    g_sink ^= acc;
  }
  return static_cast<double>(events) / secs;
}

// --- timer_cancel: replies that cancel their deadlines vs stale firing ------
//
// The RPC shape: one request per tick arms a 15-tick attempt deadline (near
// tier) and a 5000-tick client deadline (far tier), and its reply, 2 ticks
// later, completes it.  With `cancel` the reply cancels both timers;
// without it both fire long after, find their request done and return —
// what every deadline did before the kernel could cancel.  Ungated: the
// row reports what a cancel saves per request.

struct TimerRequests {
  aft::sim::Simulator* sim;
  std::uint64_t* completed;
  bool cancel;
  std::uint64_t next = 0;
  void arm() {
    sim->schedule_in(1, [this] {
      const std::uint64_t id = ++next;
      const auto deadline = [done = completed, id] {
        if (*done < id) ++g_sink;  // never: the reply always came first
      };
      const aft::sim::Simulator::Handle near = sim->schedule_in(15, deadline);
      const aft::sim::Simulator::Handle far = sim->schedule_in(5000, deadline);
      sim->schedule_in(2, [this, id, near, far] {
        *completed = id;
        if (cancel) {
          sim->cancel(near);
          sim->cancel(far);
        }
      });
      arm();
    });
  }
};

/// Requests per second over `horizon` ticks, one request per tick.
double timer_requests_rate(bool cancel, SimTime horizon) {
  double secs = 1e300;
  for (int r = -1; r < kRepeats; ++r) {  // r == -1: untimed warmup pass
    aft::sim::Simulator sim;
    std::uint64_t completed = 0;
    TimerRequests requests{&sim, &completed, cancel};
    requests.arm();
    const auto t0 = Clock::now();
    sim.run_until(horizon);
    if (r >= 0) secs = std::min(secs, seconds_since(t0));
    g_sink ^= completed;
  }
  return static_cast<double>(horizon) / secs;
}

// --- metrics_observe: LogHistogram::add vs RunningStats::add -----------------
//
// MetricsRegistry::observe feeds every sample into both accumulators, so the
// histogram add is the marginal cost of the PR-8 quantile plane.  The gate
// keeps it within 2x a bare Welford add on a latency-shaped stream (log-
// uniform-ish magnitudes, the distribution the sub-bucket math actually
// sees).  Per-add nanoseconds, best-of-kRepeats.

constexpr std::uint64_t kObserveSamples = 1u << 18;

std::vector<double> latency_stream() {
  std::vector<double> v;
  v.reserve(kObserveSamples);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < kObserveSamples; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Spread samples across ~6 decades so every add exercises the
    // bit-scan + sub-bucket path, not one hot bucket.
    v.push_back(static_cast<double>(1 + (x & 0xFFFFF)) *
                static_cast<double>(1 + (x >> 60)));
  }
  return v;
}

double welford_add_ns(const std::vector<double>& stream) {
  const double secs = best_time([&] {
    aft::util::RunningStats stats;
    for (const double v : stream) stats.add(v);
    g_sink ^= stats.count() + static_cast<std::uint64_t>(stats.mean());
  });
  return secs * 1e9 / static_cast<double>(stream.size());
}

double histogram_add_ns(const std::vector<double>& stream) {
  const double secs = best_time([&] {
    aft::util::LogHistogram hist;
    for (const double v : stream) hist.add(v);
    g_sink ^= hist.count() + hist.sum();
  });
  return secs * 1e9 / static_cast<double>(stream.size());
}

// --- metric_add / trace_emit: the cost of a static name -----------------------
//
// A metric site resolves its name once per registry and then adds straight
// into the cached node; the by-name call descends the string-keyed map on
// every add.  The registry holds about as many counters as a traced
// open-loop run, so the descent is as deep as in situ.  trace_emit times
// the record the link layer emits per frame: two Name lookups (component,
// event), three keys and one string value.  Per-operation nanoseconds,
// best-of-kRepeats.

constexpr std::uint64_t kNameOps = 1u << 20;

std::unique_ptr<aft::obs::MetricsRegistry> populated_registry() {
  auto reg = std::make_unique<aft::obs::MetricsRegistry>();
  for (int i = 0; i < 72; ++i) {
    reg->add("net.metric." + std::to_string(i * 7919 % 1000), 0);
  }
  return reg;
}

double metric_add_site_ns() {
  const auto reg = populated_registry();
  const aft::obs::ScopedObs scope(nullptr, reg.get());
  const double secs = best_time([] {
    for (std::uint64_t i = 0; i < kNameOps; ++i) {
      AFT_METRIC_ADD("net.link.sent", 1);
    }
  });
  g_sink ^= reg->counter("net.link.sent");
  return secs * 1e9 / static_cast<double>(kNameOps);
}

double metric_add_by_name_ns() {
  const auto reg = populated_registry();
  const double secs = best_time([&reg] {
    for (std::uint64_t i = 0; i < kNameOps; ++i) reg->add("net.link.sent", 1);
  });
  g_sink ^= reg->counter("net.link.sent");
  return secs * 1e9 / static_cast<double>(kNameOps);
}

double trace_emit_ns() {
  static const std::string kLink = "coord->replica-0";
  const double secs = best_time([] {
    aft::obs::TraceSink sink(kNameOps + 1);
    for (std::uint64_t i = 0; i < kNameOps; ++i) {
      sink.emit("net.link", "send",
                {{"link", kLink}, {"kind", "request"}, {"id", i}});
    }
    g_sink ^= sink.size();
  });
  return secs * 1e9 / static_cast<double>(kNameOps);
}

// --- Differential spot-checks ------------------------------------------------

/// Before trusting any timing: both kernels must dispatch an adversarial
/// schedule (same-tick bursts, re-entrant scheduling) in the identical
/// order.  tests/sim_test.cpp carries the exhaustive version; this is the
/// bench-local smoke variant.
template <typename Sim>
std::vector<std::pair<SimTime, std::uint64_t>> dispatch_log() {
  Sim sim;
  std::vector<std::pair<SimTime, std::uint64_t>> log;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    log.emplace_back(sim.now(), id);
    if (id < 64) {
      for (std::uint64_t k = 0; k < id % 3; ++k) {
        sim.schedule_in((id + k) % 4, [&fire, child = 100 + id * 3 + k] {
          fire(child);
        });
      }
    }
  };
  for (std::uint64_t id = 0; id < 64; ++id) {
    sim.schedule_at(id % 7, [&fire, id] { fire(id); });
  }
  sim.run_until(3);
  sim.run_all();
  return log;
}

/// Both buses must deliver the same messages to the same subscribers in
/// the same order (tests/arch_test.cpp pins the semantics; this catches a
/// bench-side wiring mistake before it skews a timing).
template <typename Bus>
std::vector<std::string> delivery_log() {
  Bus bus;
  std::vector<std::string> log;
  for (const char* topic : {"a", "b"}) {
    for (int s = 0; s < 2; ++s) {
      bus.subscribe(topic, [&log, topic, s](const Message& m) {
        log.push_back(std::string(topic) + "/" + std::to_string(s) + ":" +
                      m.payload);
      });
    }
  }
  bus.subscribe_all(
      [&log](const Message& m) { log.push_back("*:" + m.payload); });
  const std::vector<Message> msgs = {Message{"a", "src", "1"},
                                     Message{"a", "src", "2"},
                                     Message{"b", "src", "3"},
                                     Message{"c", "src", "4"}};
  if constexpr (std::is_same_v<Bus, aft::arch::EventBus>) {
    bus.publish_batch(std::span<const Message>(msgs));
  } else {
    for (const Message& m : msgs) bus.publish(m);
  }
  bus.publish(Message{"b", "src", "5"});
  return log;
}

bool differential_ok() {
  return dispatch_log<aft::sim::Simulator>() == dispatch_log<RefSimulator>() &&
         delivery_log<aft::arch::EventBus>() == delivery_log<RefEventBus>();
}

}  // namespace

int main() {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::cout << "=== perf_sim: two-tier InlineFn kernel + interned EventBus vs "
               "priority_queue/std::function/map reference ("
            << build_type << " build) ===\n\n";

  if (!differential_ok()) {
    std::cerr << "FATAL: kernel dispatch/delivery disagrees with reference — "
                 "not timing a broken stack\n";
    return 1;
  }

  constexpr std::uint64_t kBatches = 4096;
  constexpr SimTime kMeshHorizon = 20000;
  constexpr SimTime kRefMeshHorizon = 4000;  // rate-normalized slow side
  constexpr SimTime kFig7Horizon = 400000;
  constexpr SimTime kMixHorizon = 100000;

  const double sd_kernel =
      schedule_dispatch_rate<aft::sim::Simulator>(kBatches);
  const double sd_ref = schedule_dispatch_rate<RefSimulator>(kBatches);

  // Full-detail trace overhead on the kernel mesh: every publish-batch and
  // kernel dispatch leaves a record; the compact sink must keep that under
  // 10%.  The traced run goes back to back with the untraced one (before
  // the allocation-heavy reference mesh can perturb heap and cache state)
  // so the ratio compares like machine regimes.  The traced sink then
  // yields the JSONL-vs-binary size comparison.
  const MeshRun mesh_kernel =
      bus_mesh_run<aft::sim::Simulator, aft::arch::EventBus, true>(
          kMeshHorizon, /*traced=*/false);
  std::string trace_jsonl;
  std::string trace_bin;
  const MeshRun mesh_traced =
      bus_mesh_run<aft::sim::Simulator, aft::arch::EventBus, true>(
          kMeshHorizon, /*traced=*/true, &trace_jsonl, &trace_bin);
  const double overhead_frac = mesh_traced.secs / mesh_kernel.secs - 1.0;

  const MeshRun mesh_ref = bus_mesh_run<RefSimulator, RefEventBus, false>(
      kRefMeshHorizon, /*traced=*/false);
  const double mesh_kernel_rate =
      static_cast<double>(mesh_kernel.messages) / mesh_kernel.secs;
  const double mesh_ref_rate =
      static_cast<double>(mesh_ref.messages) / mesh_ref.secs;
  const double bin_ratio = trace_bin.empty()
                               ? 0.0
                               : static_cast<double>(trace_jsonl.size()) /
                                     static_cast<double>(trace_bin.size());

  const double fig7_kernel = fig7_shape_rate<aft::sim::Simulator>(kFig7Horizon);
  const double fig7_ref = fig7_shape_rate<RefSimulator>(kFig7Horizon);
  const double mix_kernel = timer_mix_rate<aft::sim::Simulator>(kMixHorizon);
  const double mix_ref = timer_mix_rate<RefSimulator>(kMixHorizon);
  const double cancel_rate = timer_requests_rate(/*cancel=*/true, kMixHorizon);
  const double stale_rate = timer_requests_rate(/*cancel=*/false, kMixHorizon);

  const std::vector<double> stream = latency_stream();
  const double welford_ns = welford_add_ns(stream);
  const double hist_ns = histogram_add_ns(stream);
  const double observe_ratio = hist_ns / welford_ns;
  const double site_ns = metric_add_site_ns();
  const double by_name_ns = metric_add_by_name_ns();
  const double emit_ns = trace_emit_ns();

  const auto row = [](const char* name, double kernel, double ref,
                      const char* unit) {
    std::cout << "  " << name << ": " << json_number(kernel / 1e6) << " " << unit
              << " vs " << json_number(ref / 1e6) << " " << unit << " ref  ("
              << json_number(kernel / ref) << "x)\n";
  };
  row("schedule+dispatch", sd_kernel, sd_ref, "Mevents/s");
  row("daemon mesh (bus)", mesh_kernel_rate, mesh_ref_rate, "Mmsgs/s");
  row("fig7 shape       ", fig7_kernel, fig7_ref, "Mevents/s");
  row("timer mix        ", mix_kernel, mix_ref, "Mevents/s");
  std::cout << "  timer cancel     : " << json_number(cancel_rate / 1e6)
            << " Mreq/s cancelling vs " << json_number(stale_rate / 1e6)
            << " Mreq/s firing stale  (" << json_number(cancel_rate / stale_rate)
            << "x)\n";
  std::cout << "  mesh trace       : " << json_number(overhead_frac * 100)
            << "% full-detail overhead; binary " << trace_bin.size()
            << " B vs JSONL " << trace_jsonl.size() << " B ("
            << json_number(bin_ratio) << "x smaller)\n";
  std::cout << "  metrics observe  : histogram add " << json_number(hist_ns)
            << " ns vs welford add " << json_number(welford_ns) << " ns ("
            << json_number(observe_ratio) << "x)\n";
  std::cout << "  metric add       : site handle " << json_number(site_ns)
            << " ns vs by name " << json_number(by_name_ns) << " ns ("
            << json_number(by_name_ns / site_ns) << "x)\n";
  std::cout << "  trace emit       : " << json_number(emit_ns)
            << " ns per link-send record\n";

  const double sd_speedup = sd_kernel / sd_ref;
  const double mesh_speedup = mesh_kernel_rate / mesh_ref_rate;
  const bool pass = sd_speedup >= 2.0 && mesh_speedup >= 2.0;
  const bool observe_pass = observe_ratio <= 2.0;
  std::cout << "\nschedule+dispatch " << json_number(sd_speedup)
            << "x, daemon_mesh " << json_number(mesh_speedup)
            << "x (gate: both >= 2x in release): " << (pass ? "PASS" : "FAIL")
            << "\n";
  std::cout << "histogram/welford add ratio " << json_number(observe_ratio)
            << "x (gate: <= 2x in release): "
            << (observe_pass ? "PASS" : "FAIL") << "\n";

  const char* path = std::getenv("AFT_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_sim.json";
  std::ofstream json(path);
  json << "{\n"
       << "  \"bench\": \"perf_sim\",\n"
       << "  \"build_type\": \"" << build_type << "\",\n"
       << "  \"reps\": " << kRepeats << ",\n"
       << "  \"warmup\": true,\n"
       << "  \"cpu\": \"" << aft::bench::cpu_model() << "\",\n"
       << "  \"schedule_dispatch\": {\"kernel_events_per_sec\": "
       << json_number(sd_kernel)
       << ", \"ref_events_per_sec\": " << json_number(sd_ref)
       << ", \"speedup\": " << json_number(sd_speedup) << "},\n"
       << "  \"daemon_mesh\": {\"kernel_msgs_per_sec\": "
       << json_number(mesh_kernel_rate)
       << ", \"ref_msgs_per_sec\": " << json_number(mesh_ref_rate)
       << ", \"speedup\": " << json_number(mesh_speedup) << "},\n"
       << "  \"mesh_trace\": {\"overhead_frac\": "
       << json_number(overhead_frac * 1000) << "e-3"
       << ", \"jsonl_bytes\": " << trace_jsonl.size()
       << ", \"bin_bytes\": " << trace_bin.size()
       << ", \"bin_ratio\": " << json_number(bin_ratio) << "},\n"
       << "  \"fig7_shape\": {\"kernel_events_per_sec\": "
       << json_number(fig7_kernel)
       << ", \"ref_events_per_sec\": " << json_number(fig7_ref)
       << ", \"speedup\": " << json_number(fig7_kernel / fig7_ref) << "},\n"
       << "  \"timer_mix\": {\"kernel_events_per_sec\": "
       << json_number(mix_kernel)
       << ", \"ref_events_per_sec\": " << json_number(mix_ref)
       << ", \"speedup\": " << json_number(mix_kernel / mix_ref) << "},\n"
       << "  \"timer_cancel\": {\"cancel_requests_per_sec\": "
       << json_number(cancel_rate)
       << ", \"stale_requests_per_sec\": " << json_number(stale_rate)
       << ", \"speedup\": " << json_number(cancel_rate / stale_rate) << "},\n"
       << "  \"metrics_observe\": {\"hist_add_ns\": " << json_number(hist_ns)
       << ", \"welford_add_ns\": " << json_number(welford_ns)
       << ", \"ratio\": " << json_number(observe_ratio) << "},\n"
       << "  \"metric_add\": {\"site_ns\": " << json_number(site_ns)
       << ", \"by_name_ns\": " << json_number(by_name_ns)
       << ", \"speedup\": " << json_number(by_name_ns / site_ns) << "},\n"
       << "  \"trace_emit\": {\"ns_per_record\": " << json_number(emit_ns)
       << "},\n"
       << "  \"gate_2x\": " << (pass ? "true" : "false") << ",\n"
       << "  \"gate_observe\": " << (observe_pass ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << path << "\n";

  // The 2x gate is enforced by CI on the Release build via gate_2x; a debug
  // binary still exits 0 so the bench smoke loop stays green.
  return 0;
}
