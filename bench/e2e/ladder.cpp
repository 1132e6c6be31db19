// The layer ladder: layers whose public calls happen inside scheduled
// continuations cannot be wrapped in spans from bench code, so each rung
// drives one entry point in isolation, at the shape the e2e pass recorded,
// and a rung's self time is its ns per op minus what the rungs below it
// account for (their self ns times the rung's own per-op counts).
//
//   sim      no-op schedule_in + step at the workload's pending depth
//   link     Link::send of the fan-out's request frame, delivered
//   rpc      Endpoint::call over a clean link pair with a serve() handler
//   vote     VotingFarm::invoke at the recorded arity
//   observe  the same invoke plus ReflectiveSwitchboard::observe
//   beat     an idle started ReplicatedService: heartbeats and membership
//            windows, the cluster's time-driven work, charged per beat
//   cluster  closed-loop ReplicatedService::invoke over clean wires
//   load     a ClientPopulation below overload against that service
//
// Leaf rungs time the entry points the other workloads call directly: bus
// publish, trace emit and serialisation, ECC read/write/scrub, injection.
//
// The machine's speed drifts by tens of percent over seconds, and a self
// time is a difference of rungs, so rungs timed far apart can leave it
// negative.  The ladder therefore runs in rounds: each round times its
// rungs once, back to back, and computes their self times from that round
// alone; each reported self time is the median over the rounds.  The
// traced pass interleaves the rounds with its repetitions, so the ladder
// and the e2e time it is compared with see the same machine.  Only the
// first few rounds run the rungs of layers the workload does not call.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/event_bus.hpp"
#include "autonomic/switchboard.hpp"
#include "cluster/replica.hpp"
#include "e2e.hpp"
#include "hw/fault_injector.hpp"
#include "hw/memory_chip.hpp"
#include "load/traffic.hpp"
#include "mem/method_ecc.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vote/voting_farm.hpp"

namespace aft::e2e {
namespace {

constexpr sim::SimTime kFarFuture = sim::SimTime{1} << 60;

struct Field {
  const char* name;
  double LayerTimes::*member;
  /// 0: the full rounds only, since a workload that publishes gets the
  /// in-situ span instead
  unsigned group;
};

const Field kFields[] = {
    {"sim.ns_per_event", &LayerTimes::sim_event, kRungSim},
    {"net.link.ns_per_frame", &LayerTimes::link_frame, kRungNet},
    {"net.rpc.ns_per_call", &LayerTimes::rpc_call, kRungNet},
    {"vote.ns_per_round", &LayerTimes::vote_round, kRungVote},
    {"autonomic.ns_per_observe", &LayerTimes::observe, kRungVote},
    {"net.membership.ns_per_beat", &LayerTimes::beat, kRungNet},
    {"cluster.ns_per_round", &LayerTimes::cluster_round, kRungNet},
    {"load.self_ns_per_request", &LayerTimes::load_request, kRungNet},
    {"arch.bus.publish_ns", &LayerTimes::bus_publish, 0},
    {"obs.emit_ns_per_record", &LayerTimes::obs_emit, kRungObs},
    {"obs.flush_ns_per_record", &LayerTimes::obs_flush, kRungObs},
    {"mem.read_ns", &LayerTimes::mem_read, kRungMem},
    {"mem.write_ns", &LayerTimes::mem_write, kRungMem},
    {"mem.scrub_ns_per_word", &LayerTimes::scrub_word, kRungMem},
    {"hw.inject_ns_per_tick", &LayerTimes::inject_tick, kRungMem},
};

constexpr unsigned kRungAll = ~0u;
/// Timed rounds that run every rung; the median of three keeps a rung the
/// workload does not use from reporting one disturbed round.
constexpr std::size_t kFullRounds = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// ns per op of `batch(n)`, which runs n ops.
template <typename Batch>
double per_op(std::size_t n, Batch&& batch) {
  const Clock::time_point t0 = Clock::now();
  batch(n);
  return ns_between(t0, Clock::now()) / static_cast<double>(n);
}

/// Parks `depth` events far in the future so every rung's kernel works at
/// the pending depth the workload ran at.
void prefill(sim::Simulator& sim, double depth) {
  const auto n = static_cast<std::size_t>(depth + 0.5);
  for (std::size_t i = 0; i < n; ++i) sim.schedule_at(kFarFuture, [] {});
}

std::size_t odd_arity(std::size_t n) { return n % 2 == 0 ? n + 1 : n; }

net::LinkFaults clean_wire() {
  net::LinkFaults f;
  f.latency = 2;
  f.jitter = 1;
  return f;
}

net::CallOptions call_options() {
  net::CallOptions o;
  o.deadline = 15;
  o.retry.max_attempts = 2;
  o.retry.initial_backoff = 4;
  o.retry.max_backoff = 8;
  return o;
}

/// The fan-out's request frame, built per send as Endpoint does: copies of
/// the call's method, payload and endpoint name.
net::Frame request_frame(std::uint64_t id) {
  static const std::string kMethod = "compute";
  static const std::string kPayload = "7";
  static const std::string kOrigin = "coord:replica-0";
  net::Frame f;
  f.kind = net::FrameKind::kRequest;
  f.id = id;
  f.aux = 1;
  f.method = kMethod;
  f.payload = kPayload;
  f.origin = kOrigin;
  return f;
}

cluster::ClusterParams rung_cluster(const LadderShape& shape) {
  cluster::ClusterParams p;
  p.pool = std::max(shape.pool, odd_arity(shape.arity));
  p.wire.to_replica = clean_wire();
  p.wire.from_replica = clean_wire();
  p.policy.min_replicas = odd_arity(shape.arity);
  p.policy.max_replicas = p.policy.min_replicas;
  p.policy.lower_after = 1u << 20;
  p.call = call_options();
  p.heartbeat_period = 4;
  p.membership.deadline = 10;
  p.admission.queue_limit = 64;
  return p;
}

vote::Ballot replica_task(vote::Ballot input, std::size_t) {
  return input * 2 + 1;
}

/// Per-op counts a rung's self time is charged against.
struct Work {
  double events = 0;
  double frames = 0;
  double beats = 0;
  double calls = 0;
  double rounds = 0;
};

/// What the rungs below account for in `w` units of work.
double below(const LayerTimes& t, const Work& w) {
  return w.events * t.sim_event + w.frames * t.link_frame + w.beats * t.beat +
         w.calls * t.rpc_call +
         w.rounds * (t.cluster_round + t.vote_round + t.observe);
}

/// Requests reach a replica only on its inbound wire and each is answered
/// once, so the outbound wire's other frames are heartbeats.
Work cluster_work(cluster::ReplicatedService& service,
                  const sim::Simulator& sim, double ops) {
  Work w;
  for (std::size_t i = 0; i < service.pool(); ++i) {
    const net::LinkCounters& to = service.link_to(i).counters();
    const net::LinkCounters& from = service.link_from(i).counters();
    w.calls += static_cast<double>(service.rpc_counters(i).calls);
    w.frames += static_cast<double>(to.sent + from.sent);
    w.beats += static_cast<double>(from.sent - to.delivered);
  }
  w.events = static_cast<double>(sim.executed());
  w.calls /= ops;
  w.frames /= ops;
  w.beats /= ops;
  w.events /= ops;
  return w;
}

struct SimRung {
  explicit SimRung(double depth) { prefill(sim, depth); }
  double sample(std::size_t n) {
    return per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        sim.schedule_in(1, [] {});
        sim.step();
      }
    });
  }
  sim::Simulator sim;
};

struct LinkRung {
  explicit LinkRung(double depth)
      : link(sim, "coord->replica-0", clean_wire(), 1) {
    prefill(sim, depth);
    link.set_receiver([this](net::Frame&&) { ++delivered; });
  }
  double sample(std::size_t n) {
    return per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        link.send(request_frame(link.counters().sent + 1));
        while (delivered < link.counters().sent) sim.step();
      }
    });
  }
  [[nodiscard]] Work work() const {
    Work w;
    w.frames = 1;
    w.events = static_cast<double>(sim.executed()) /
               static_cast<double>(link.counters().sent);
    return w;
  }
  sim::Simulator sim;
  net::Link link;
  std::uint64_t delivered = 0;
};

struct RpcRung {
  explicit RpcRung(double depth)
      : to(sim, "coord->replica-0", clean_wire(), 1),
        from(sim, "replica-0->coord", clean_wire(), 2),
        client(sim, "coord:replica-0", 3),
        server(sim, "replica-0", 4) {
    prefill(sim, depth);
    client.attach(from, to);
    server.attach(to, from);
    server.serve("compute",
                 [](const std::string& request, std::string& response) {
                   response = request;
                   return true;
                 });
  }
  double sample(std::size_t n) {
    return per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t want = done + 1;
        client.call("compute", payload, options,
                    [this](const net::RpcResult&) { ++done; });
        while (done < want) sim.step();
      }
    });
  }
  [[nodiscard]] Work work() const {
    const auto calls = static_cast<double>(client.counters().calls);
    Work w;
    w.calls = 1;
    w.events = static_cast<double>(sim.executed()) / calls;
    w.frames =
        static_cast<double>(to.counters().sent + from.counters().sent) / calls;
    return w;
  }
  sim::Simulator sim;
  net::Link to;
  net::Link from;
  net::Endpoint client;
  net::Endpoint server;
  const net::CallOptions options = call_options();
  const std::string payload = "7";
  std::uint64_t done = 0;
};

/// VotingFarm::invoke alone, then with ReflectiveSwitchboard::observe.
struct VoteRung {
  explicit VoteRung(std::size_t arity)
      : bare(arity, replica_task),
        farm(arity, replica_task),
        board(farm, policy(arity), 1) {}
  static autonomic::ReflectiveSwitchboard::Policy policy(std::size_t arity) {
    autonomic::ReflectiveSwitchboard::Policy p;
    p.min_replicas = arity;
    p.max_replicas = arity;
    return p;
  }
  /// {vote ns, observe self ns} per round.
  std::pair<double, double> sample(std::size_t n) {
    const double v = per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) static_cast<void>(bare.invoke(++in));
    });
    const double o = per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) board.observe(farm.invoke(++in));
    });
    return {v, o - v};
  }
  vote::VotingFarm bare;
  vote::VotingFarm farm;
  autonomic::ReflectiveSwitchboard board;
  vote::Ballot in = 0;
};

/// A started service with no invokes: heartbeats and membership windows.
struct BeatRung {
  explicit BeatRung(const LadderShape& shape)
      : service(sim, rung_cluster(shape), replica_task, 9) {
    service.start();
  }
  double sample(sim::SimTime ticks) {
    const double beats0 = cluster_work(service, sim, 1).beats;
    const Clock::time_point t0 = Clock::now();
    sim.run_until(sim.now() + ticks);
    const double ns = ns_between(t0, Clock::now());
    return ns / (cluster_work(service, sim, 1).beats - beats0);
  }
  [[nodiscard]] Work work() {
    Work w = cluster_work(service, sim, cluster_work(service, sim, 1).beats);
    w.beats = 0;  // the rung's own unit
    return w;
  }
  sim::Simulator sim;
  cluster::ReplicatedService service;
};

struct ClusterRung {
  explicit ClusterRung(const LadderShape& shape)
      : service(sim, rung_cluster(shape), replica_task, 5) {
    service.start();
  }
  double sample(std::size_t n) {
    return per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t want = service.counters().rounds + 1;
        service.invoke(7);
        while (service.counters().rounds < want) sim.step();
      }
    });
  }
  [[nodiscard]] Work work() {
    return cluster_work(service, sim,
                        static_cast<double>(service.counters().rounds));
  }
  sim::Simulator sim;
  cluster::ReplicatedService service;
};

/// One ClientPopulation run on fresh objects, as in a repetition; returns
/// ns per request and sets `work` (rounds per request included).
double load_sample(const LadderShape& shape, std::size_t clients, Work& work) {
  sim::Simulator sim;
  cluster::ReplicatedService service(sim, rung_cluster(shape), replica_task, 11);
  load::TrafficParams t;
  t.clients = clients;
  // The open-loop cell's warm-phase rate: busy enough that heartbeats do
  // not swamp the requests, below the rate that sheds.
  t.warm_gap = t.overload_gap = t.recovery_gap = 24.0;
  t.call.deadline = 5000;
  t.call.retry.max_attempts = 1;
  load::ClientPopulation population(sim, service, t, 12);
  service.start();
  population.start();
  const Clock::time_point t0 = Clock::now();
  while (!population.done() && sim.step()) {
  }
  const double ns = ns_between(t0, Clock::now());
  const auto calls = static_cast<double>(population.client_counters().calls);
  work = cluster_work(service, sim, calls);
  // The population's own clean link pair carries one request and one
  // response per client call; each request is one client call.
  work.frames += 2;
  work.calls += 1;
  work.rounds = static_cast<double>(service.counters().rounds) / calls;
  return ns / calls;
}

struct BusRung {
  BusRung() : farm(3, replica_task), board(farm, VoteRung::policy(3), 1) {
    board.bind_slo(bus);  // a breach at the ceiling handles without resizing
    msg.topic = "obs.slo/breach";
    msg.source = "obs.slo";
    msg.payload = "traffic-invoke";
  }
  double sample(std::size_t n) {
    return per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) bus.publish(msg);
    });
  }
  arch::EventBus bus;
  vote::VotingFarm farm;
  autonomic::ReflectiveSwitchboard board;
  arch::Message msg;
};

/// TraceSink::emit of a link-send-shaped record into a fresh sink, then
/// write_binary of it; returns {emit ns, serialise ns} per record.
std::pair<double, double> obs_sample(std::size_t n) {
  static const std::string kLink = "coord->replica-0";
  obs::TraceSink sink(n + 1);
  const double emit = per_op(n, [&sink](std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      sink.emit("net.link", "send",
                {{"link", kLink}, {"kind", "request"}, {"id", std::uint64_t{i}}});
    }
  });
  std::ostringstream out;
  const double flush =
      per_op(n, [&sink, &out](std::size_t) { sink.write_binary(out); });
  return {emit, flush};
}

struct MemRung {
  static constexpr std::size_t kWords = 65536;
  static constexpr std::size_t kScrubWords = 256;

  MemRung() : method(chip, kScrubWords), injector(chip, profile(), 22) {
    util::Xoshiro256 rng(21);
    for (std::size_t a = 0; a < kWords; ++a) method.write(a, rng.next());
    for (std::size_t& a : addrs) a = rng.uniform_int(0, kWords - 1);
  }
  static hw::FaultProfile profile() {
    hw::FaultProfile p;
    p.seu_rate = 0.05;
    return p;
  }
  void sample(std::size_t n, LayerTimes& t) {
    t.mem_read = per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        static_cast<void>(method.read(addrs[i % addrs.size()]));
      }
    });
    t.mem_write = per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        method.write(addrs[i % addrs.size()], i);
      }
    });
    t.scrub_word = per_op(n / kScrubWords + 1,
                          [this](std::size_t k) {
                            for (std::size_t i = 0; i < k; ++i) {
                              method.scrub_step();
                            }
                          }) /
                   static_cast<double>(kScrubWords);
    t.inject_tick = per_op(n, [this](std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) static_cast<void>(injector.tick());
    });
  }
  hw::MemoryChip chip{kWords};
  mem::EccScrubAccess method;
  hw::FaultInjector injector;
  std::vector<std::size_t> addrs = std::vector<std::size_t>(4096);
};

}  // namespace

std::vector<std::pair<const char*, double>> LayerTimes::all() const {
  std::vector<std::pair<const char*, double>> out;
  for (const Field& f : kFields) out.emplace_back(f.name, this->*f.member);
  return out;
}

struct Ladder::Rungs {
  explicit Rungs(const LadderShape& shape)
      : sim(shape.depth),
        link(shape.depth),
        rpc(shape.depth),
        vote(odd_arity(shape.arity)),
        beat(shape),
        cluster(shape) {}
  SimRung sim;
  LinkRung link;
  RpcRung rpc;
  VoteRung vote;
  BeatRung beat;
  ClusterRung cluster;
  BusRung bus;
  MemRung mem;
};

Ladder::Ladder(const LadderShape& shape)
    : shape_(shape),
      uses_((shape.uses & kRungNet) != 0
                ? shape.uses | kRungSim | kRungVote
                : shape.uses),
      rungs_(std::make_unique<Rungs>(shape)) {}

Ladder::~Ladder() = default;

void Ladder::round() {
  const std::size_t scale = shape_.smoke ? 50 : 1;
  // The warm-up and the first kFullRounds timed rounds run every rung;
  // later rounds only those the workload's attribution uses.
  const unsigned on = rounds_.size() < kFullRounds ? kRungAll : uses_;
  Rungs& r = *rungs_;
  LayerTimes t;
  if ((on & kRungSim) != 0) t.sim_event = r.sim.sample(200000 / scale);
  if ((on & kRungNet) != 0) {
    t.link_frame = r.link.sample(100000 / scale) - below(t, r.link.work());
    t.rpc_call = r.rpc.sample(20000 / scale) - below(t, r.rpc.work());
  }
  if ((on & kRungVote) != 0) {
    std::tie(t.vote_round, t.observe) = r.vote.sample(200000 / scale);
  }
  if ((on & kRungNet) != 0) {
    t.beat = r.beat.sample(40000 / scale) - below(t, r.beat.work());
    t.cluster_round = r.cluster.sample(4000 / scale) -
                      below(t, r.cluster.work()) - t.vote_round - t.observe;
    Work load;
    t.load_request = load_sample(shape_, 2000 / scale, load);
    t.load_request -= below(t, load);
  }
  if (on == kRungAll) t.bus_publish = r.bus.sample(200000 / scale);
  if ((on & kRungObs) != 0) {
    std::tie(t.obs_emit, t.obs_flush) = obs_sample(100000 / scale);
  }
  if ((on & kRungMem) != 0) r.mem.sample(200000 / scale, t);
  if (warm_) rounds_.push_back(t);
  warm_ = true;  // the first round only warms every rung up
}

LayerTimes Ladder::self_times() const {
  LayerTimes out;
  for (const Field& f : kFields) {
    const std::size_t n = (uses_ & f.group) != 0
                              ? rounds_.size()
                              : std::min(kFullRounds, rounds_.size());
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) v.push_back(rounds_[i].*f.member);
    out.*f.member = v.empty() ? 0.0 : median(v);
  }
  return out;
}

}  // namespace aft::e2e
