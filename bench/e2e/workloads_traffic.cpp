// Traffic workloads: open-system client populations driving a replicated
// service over simulated links, from client arrival down to the vote.
//
//   open_loop         the abl_open_loop poisson/reject-newest cell: sim, net,
//                     cluster and vote do nearly all the work, obs almost none.
//   open_loop_traced  the same inputs with a binary TraceSink and a
//                     MetricsRegistry installed and serialised in the timed
//                     region, so obs does a large share of the work.
//   faulty_wire       lossy, duplicating, reordering wires, per-replica
//                     breakers, retries and a recurring partition, so the
//                     retry, stale-response, breaker and membership paths
//                     dominate.
#include <memory>
#include <sstream>
#include <string>

#include "arch/event_bus.hpp"
#include "cluster/replica.hpp"
#include "e2e.hpp"
#include "load/traffic.hpp"
#include "net/link.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "sim/simulator.hpp"

namespace aft::e2e {
namespace {

constexpr std::size_t kQueueLimit = 64;

struct Config {
  std::size_t clients;
  std::size_t smoke_clients;
  bool obs;     ///< install and serialise a TraceSink + MetricsRegistry
  bool faulty;  ///< faulty_wire shape instead of the open-loop cell
};

constexpr Config kOpenLoop{50000, 2000, false, false};
constexpr Config kOpenLoopTraced{25000, 1000, true, false};
constexpr Config kFaultyWire{20000, 1500, false, true};

// faulty_wire partitions replica 0 for kPartitionLen of every
// kPartitionPeriod ticks (scaled down for --smoke so it still happens).
constexpr sim::SimTime kPartitionPeriod = 200000;
constexpr sim::SimTime kPartitionLen = 50000;
constexpr sim::SimTime kSmokePartitionPeriod = 20000;
constexpr sim::SimTime kSmokePartitionLen = 5000;
constexpr sim::SimTime kRepairPeriod = 5000;

net::LinkFaults quiet_wire() {
  net::LinkFaults f;
  f.latency = 2;
  f.jitter = 1;
  return f;
}

net::LinkFaults lossy_wire() {
  net::LinkFaults f = quiet_wire();
  f.drop = 0.03;
  f.duplicate = 0.02;
  f.reorder = 0.02;
  return f;
}

cluster::ClusterParams cluster_params(const Config& cfg) {
  cluster::ClusterParams p;
  p.pool = cfg.faulty ? 7 : 5;
  p.wire.to_replica = cfg.faulty ? lossy_wire() : quiet_wire();
  p.wire.from_replica = p.wire.to_replica;
  p.policy.min_replicas = 3;
  p.policy.max_replicas = 5;
  p.policy.step = 2;
  // The open-loop cell never lowers mid-run (overload never calms); the
  // faulty wire uses the paper's 1000-round calm streak so lowers happen.
  p.policy.lower_after = cfg.faulty ? 1000 : (1u << 20);
  p.call.deadline = 15;
  p.call.retry.max_attempts = 2;
  p.call.retry.initial_backoff = 4;
  p.call.retry.max_backoff = 8;
  if (cfg.faulty) {
    net::CircuitBreaker::Params breaker;
    breaker.cooldown = 120;
    p.breaker = breaker;
  }
  p.heartbeat_period = 4;
  p.membership.deadline = 10;
  p.admission.queue_limit = kQueueLimit;
  p.admission.policy = cluster::ShedPolicy::kRejectNewest;
  return p;
}

std::unique_ptr<obs::SloTracker> make_tracker(const Config& cfg) {
  if (cfg.faulty) return nullptr;
  obs::SloPolicy slo;
  slo.budget_permille = 100;
  slo.threshold_ticks = 400;
  slo.window_ticks = 4000;
  return std::make_unique<obs::SloTracker>("traffic-invoke", slo);
}

load::TrafficParams traffic_params(const Config& cfg, bool smoke,
                                   obs::SloTracker* tracker) {
  load::TrafficParams t;
  t.clients = smoke ? cfg.smoke_clients : cfg.clients;
  t.arrival = load::Arrival::kPoisson;
  if (cfg.faulty) {
    t.warm_gap = t.overload_gap = t.recovery_gap = 40.0;
  } else {
    t.warm_gap = 24.0;
    t.overload_gap = 4.0;
    t.recovery_gap = 24.0;
  }
  t.call.deadline = 5000;
  t.call.retry.max_attempts = 1;
  t.slo = tracker;
  return t;
}

/// RPC identity of one endpoint once every call has completed:
/// calls = ok + circuit_open + deadline_exceeded + exhausted + rejected
/// (+ outstanding, which is 0 once the run has drained).
void check_rpc(Checks& checks, const net::RpcCounters& c,
               const std::string& who) {
  checks.expect(c.calls == c.ok + c.circuit_open + c.deadline_exceeded +
                               c.exhausted + c.rejected,
                who + ": calls == ok + circuit_open + deadline_exceeded + "
                      "exhausted + rejected + outstanding(0)");
}

/// Link identity: every send and duplicate copy is delivered, dropped, or
/// still in flight (link.cpp counts partition swallows and no-receiver
/// arrivals as drops).
void check_link(Checks& checks, const net::Link& link) {
  const net::LinkCounters& c = link.counters();
  checks.expect(c.sent + c.duplicated ==
                    c.delivered + c.dropped + link.in_flight(),
                link.name() + ": sent + duplicated == delivered + dropped + "
                              "in_flight");
}

class TrafficState final : public State {
 public:
  TrafficState(const Config& cfg, std::uint64_t seed, bool smoke)
      : cfg_(cfg),
        smoke_(smoke),
        service_(sim_, cluster_params(cfg),
                 [](vote::Ballot input, std::size_t) { return input * 2 + 1; },
                 seed),
        tracker_(make_tracker(cfg)),
        population_(sim_, service_, traffic_params(cfg, smoke, tracker_.get()),
                    seed + 100) {
    if (tracker_ != nullptr) {
      service_.switchboard().bind_slo(bus_);
      tracker_->set_publisher([this](bool breach) { publish(breach); });
    }
    if (cfg_.obs) {
      sink_ = std::make_unique<obs::TraceSink>();
      registry_ = std::make_unique<obs::MetricsRegistry>();
    }
    service_.start();
    population_.start();
    if (cfg_.faulty) {
      schedule_partition(smoke ? kSmokePartitionPeriod / 2
                               : kPartitionPeriod / 2);
      schedule_repairs(kRepairPeriod);
    }
  }

  void run(Spans* spans) {
    spans_ = spans;
    if (cfg_.obs) {
      obs::ScopedObs scope(sink_.get(), registry_.get());
      drive();
      // Serialising is part of what tracing costs, so it stays timed.
      const Clock::time_point t0 = Clock::now();
      std::ostringstream bin;
      sink_->write_binary(bin);
      std::ostringstream json;
      registry_->write_json(json);
      if (spans != nullptr) spans->add(Span::kFlush, t0, Clock::now());
      binary_bytes_ = static_cast<std::uint64_t>(bin.tellp());
      json_bytes_ = static_cast<std::uint64_t>(json.tellp());
    } else {
      drive();
    }
  }

  RepResult validate(Checks& checks) {
    RepResult r;
    Counts& c = r.counts;
    std::uint64_t requests = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    for (std::size_t p = 0; p < load::ClientPopulation::kPhases; ++p) {
      const load::PhaseStats& s = population_.phase(p);
      const std::string name = load::ClientPopulation::phase_name(p);
      const std::uint64_t outcomes = s.ok + s.shed + s.failed;
      checks.expect(s.requests == outcomes,
                    "phase " + name + ": requests == ok + shed + failed");
      r.unaccounted += s.requests > outcomes ? s.requests - outcomes
                                             : outcomes - s.requests;
      c["load." + name + ".requests"] = s.requests;
      c["load." + name + ".ok"] = s.ok;
      c["load." + name + ".shed"] = s.shed;
      c["load." + name + ".failed"] = s.failed;
      c["load." + name + ".p50_ticks"] = s.latency.quantile(0.5);
      c["load." + name + ".p99_ticks"] = s.latency.quantile(0.99);
      c["load." + name + ".p999_ticks"] = s.latency.quantile(0.999);
      requests += s.requests;
      ok += s.ok;
      shed += s.shed;
      failed += s.failed;
    }
    r.ops = requests;
    r.refused = shed;
    r.not_ok = failed;
    c["load.requests"] = requests;
    c["load.ok"] = ok;
    c["load.shed"] = shed;
    c["load.failed"] = failed;
    c["load.peak_sessions"] = population_.peak_sessions();
    checks.expect(population_.done(), "every client session completed");

    const net::RpcCounters& client = population_.client_counters();
    check_rpc(checks, client, "pop-client");
    checks.expect(client.calls == requests, "client calls == requests");

    const cluster::ClusterCounters& k = service_.counters();
    checks.expect(k.admitted + k.shed == client.calls,
                  "admitted + shed == client calls");
    checks.expect(client.rejected == k.shed,
                  "client rejections == cluster sheds");
    checks.expect(service_.queue_depth() == 0, "invoke queue drained");
    checks.expect(k.rounds == k.admitted,
                  "rounds == admitted once drained (reject-newest)");
    checks.expect(service_.farm().rounds() == k.rounds,
                  "VotingFarm::rounds() == cluster rounds");
    checks.expect(k.queue_peak <= kQueueLimit, "queue_peak <= 64");
    c["cluster.pool"] = service_.pool();
    c["cluster.admitted"] = k.admitted;
    c["cluster.shed"] = k.shed;
    c["cluster.rounds"] = k.rounds;
    c["cluster.queue_peak"] = k.queue_peak;
    c["cluster.no_quorum"] = k.no_quorum;
    c["cluster.dissent_rounds"] = k.dissent_rounds;
    c["cluster.evictions"] = k.evictions;
    c["cluster.reinstatements"] = k.reinstatements;
    c["cluster.suspects"] = k.suspects;
    c["cluster.repairs"] = repairs_;
    c["cluster.short_rounds"] = k.short_rounds;
    c["cluster.substituted_rounds"] = k.substituted_rounds;
    c["cluster.rpc_failures"] = k.rpc_failures;

    const vote::VotingFarm& farm = service_.farm();
    const autonomic::ReflectiveSwitchboard& board = service_.switchboard();
    c["vote.rounds"] = farm.rounds();
    c["vote.failures"] = farm.failures();
    c["vote.ballots"] = farm.replica_invocations();
    c["vote.final_arity"] = farm.replicas();
    c["autonomic.raises"] = board.raises();
    c["autonomic.lowers"] = board.lowers();
    c["autonomic.slo_raises"] = board.slo_raises();
    c["autonomic.disturbance_raises"] = board.disturbance_raises();
    c["autonomic.rounds_observed"] = board.rounds_observed();
    c["autonomic.rounds_at_min"] = board.redundancy_histogram().count(3);

    // Fan-out channels and their wires.  Requests reach the replica only on
    // its inbound wire and each is answered once, so the replica's outbound
    // wire carries to.delivered responses and the rest are heartbeats.
    net::RpcCounters rpc = client;
    std::uint64_t frames = 2 * client.calls;  // clean front-door pair
    std::uint64_t heartbeats = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    for (std::size_t i = 0; i < service_.pool(); ++i) {
      const net::RpcCounters& rc = service_.rpc_counters(i);
      check_rpc(checks, rc, "coord:" + service_.replica_name(i));
      rpc.calls += rc.calls;
      rpc.ok += rc.ok;
      rpc.attempts += rc.attempts;
      rpc.stale_responses += rc.stale_responses;
      rpc.circuit_open += rc.circuit_open;
      rpc.exhausted += rc.exhausted;
      const net::Link& to = service_.link_to(i);
      const net::Link& from = service_.link_from(i);
      check_link(checks, to);
      check_link(checks, from);
      frames += to.counters().sent + from.counters().sent;
      heartbeats += from.counters().sent - to.counters().delivered;
      for (const net::Link* link : {&to, &from}) {
        sent += link->counters().sent;
        dropped += link->counters().dropped;
        duplicated += link->counters().duplicated;
      }
    }
    c["net.rpc.calls"] = rpc.calls;
    c["net.rpc.ok"] = rpc.ok;
    c["net.rpc.attempts"] = rpc.attempts;
    c["net.rpc.stale"] = rpc.stale_responses;
    c["net.rpc.circuit_open"] = rpc.circuit_open;
    c["net.rpc.exhausted"] = rpc.exhausted;
    c["net.frames"] = frames;
    c["net.heartbeats"] = heartbeats;
    c["net.link.sent"] = sent;
    c["net.link.dropped"] = dropped;
    c["net.link.duplicated"] = duplicated;
    c["sim.events"] = sim_.executed();
    c["sim.final_time"] = sim_.now();
    c["arch.bus.published"] = bus_.published();
    if (tracker_ != nullptr) {
      c["obs.slo.breaches"] = tracker_->breaches();
      c["obs.slo.recoveries"] = tracker_->recoveries();
    }
    if (cfg_.obs) {
      c["obs.records"] = sink_->size();
      c["obs.dropped"] = sink_->dropped();
      c["obs.bytes_binary"] = binary_bytes_;
      c["obs.bytes_json"] = json_bytes_;
      checks.expect(sink_->dropped() == 0, "obs.dropped == 0");
    }
    return r;
  }

 private:
  void drive() {
    // Heartbeats re-arm forever, so the run ends on population completion,
    // not on an empty queue.
    if (spans_ == nullptr) {
      while (!population_.done() && sim_.step()) {
      }
    } else {
      std::uint64_t n = 0;
      while (!population_.done() && sim_.step()) {
        if ((++n & 1023u) == 0) spans_->depth(sim_.pending());
      }
    }
    if (tracker_ != nullptr) tracker_->flush(sim_.now());
  }

  void publish(bool breach) {
    arch::Message msg;
    msg.topic = breach ? "obs.slo/breach" : "obs.slo/recover";
    msg.source = "obs.slo";
    msg.payload = "traffic-invoke";
    timed(spans_, Span::kPublish, [&] { bus_.publish(msg); });
  }

  void schedule_partition(sim::SimTime at) {
    const sim::SimTime len = smoke_ ? kSmokePartitionLen : kPartitionLen;
    const sim::SimTime period =
        smoke_ ? kSmokePartitionPeriod : kPartitionPeriod;
    sim_.schedule_at(at, [this, at, len, period] {
      service_.link_to(0).partition();
      service_.link_from(0).partition();
      sim_.schedule_at(at + len, [this, at, period] {
        service_.link_to(0).heal();
        service_.link_from(0).heal();
        schedule_partition(at + period);
      });
    });
  }

  // Sect. 3.2 unit replacement every kRepairPeriod ticks: replicas the
  // ballot discriminator retired return to the pool.  A breaker that opens
  // on a run of dropped attempts fails that replica's calls fast, and the
  // missing ballots retire it; without the sweep four of the seven
  // replicas are retired within a run and most rounds vote short.
  void schedule_repairs(sim::SimTime at) {
    sim_.schedule_at(at, [this, at] {
      for (std::size_t i = 0; i < service_.pool(); ++i) {
        if (!service_.suspect(i)) continue;
        service_.repair(i);
        ++repairs_;
      }
      schedule_repairs(at + kRepairPeriod);
    });
  }

  Config cfg_;
  bool smoke_;
  sim::Simulator sim_;
  cluster::ReplicatedService service_;
  arch::EventBus bus_;
  std::unique_ptr<obs::SloTracker> tracker_;
  load::ClientPopulation population_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  Spans* spans_ = nullptr;
  std::uint64_t binary_bytes_ = 0;
  std::uint64_t json_bytes_ = 0;
  std::uint64_t repairs_ = 0;
};

template <const Config& kCfg, std::uint64_t kBaseSeed>
Workload make(const char* name) {
  return Workload{
      name,
      [](std::uint64_t seed, bool smoke) -> std::unique_ptr<State> {
        return std::make_unique<TrafficState>(
            kCfg, derive_seed(kBaseSeed, seed), smoke);
      },
      [](State& s, Spans* spans) { static_cast<TrafficState&>(s).run(spans); },
      [](State& s, std::uint64_t, Checks& checks) {
        return static_cast<TrafficState&>(s).validate(checks);
      }};
}

}  // namespace

const std::vector<Workload>& traffic_workloads() {
  // 530000 is abl_open_loop's poisson/reject-newest cell seed.
  static const std::vector<Workload> kAll = {
      make<kOpenLoop, 530000>("open_loop"),
      make<kOpenLoopTraced, 530000>("open_loop_traced"),
      make<kFaultyWire, 740000>("faulty_wire"),
  };
  return kAll;
}

}  // namespace aft::e2e
