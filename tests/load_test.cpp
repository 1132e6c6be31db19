// Tests for the open-system traffic plane (src/load + util/arrival.hpp):
// golden-pinned sampler determinism, closed-form mean/tail sanity, the
// service-side admission policies (reject-newest / reject-oldest /
// probabilistic) at the invoke-queue level, and a small end-to-end
// ClientPopulation run proving phase accounting and same-seed determinism.
//
// Heartbeats re-arm forever, so population runs bound the clock and drive
// sim.step() until done() instead of run_all().
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/replica.hpp"
#include "load/traffic.hpp"
#include "net/link.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/arrival.hpp"
#include "util/rng.hpp"
#include "vote/voting_farm.hpp"

namespace {

using aft::cluster::ClusterParams;
using aft::cluster::InvokeOutcome;
using aft::cluster::ReplicatedService;
using aft::cluster::ShedPolicy;
using aft::load::Arrival;
using aft::load::ClientPopulation;
using aft::load::TrafficParams;
using aft::net::LinkFaults;
using aft::sim::Simulator;
using aft::util::diurnal_factor;
using aft::util::exponential_gap;
using aft::util::OnOffModulator;
using aft::util::pareto_int;
using aft::util::Xoshiro256;
using aft::vote::Ballot;
using aft::vote::RoundReport;

// --- Arrival samplers ---

// The samplers are pure functions of the RNG stream: these sequences are
// the byte-determinism contract the trace-diff CI jobs rely on.  If one
// changes, every recorded campaign trace changes with it.
TEST(ArrivalTest, ExponentialGapGoldenSequence) {
  Xoshiro256 rng(1234);
  const std::uint64_t expect[] = {1, 18, 11, 20, 1, 22, 5, 2};
  for (std::uint64_t e : expect) EXPECT_EQ(exponential_gap(rng, 10.0), e);
}

TEST(ArrivalTest, ParetoIntGoldenSequence) {
  Xoshiro256 rng(1234);
  const std::uint64_t expect[] = {1, 2, 1, 2, 1, 3, 1, 1};
  for (std::uint64_t e : expect) {
    EXPECT_EQ(pareto_int(rng, 1.0, 2.0, 1000), e);
  }
}

TEST(ArrivalTest, OnOffModulatorGoldenSequence) {
  Xoshiro256 rng(77);
  OnOffModulator mod({});
  const std::uint64_t expect[] = {205, 10, 40, 8, 2, 1, 13, 10};
  for (std::uint64_t e : expect) EXPECT_EQ(mod.next_gap(rng, 100.0), e);
}

TEST(ArrivalTest, ExponentialGapMeanMatchesClosedForm) {
  Xoshiro256 rng(9);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t gap = exponential_gap(rng, 20.0);
    EXPECT_GE(gap, 1u);
    sum += static_cast<double>(gap);
  }
  // Flooring shifts the continuous mean (20) down by ~0.5; the >=1 clamp
  // nudges it back up a little.
  const double mean = sum / kSamples;
  EXPECT_GT(mean, 19.0);
  EXPECT_LT(mean, 20.5);
}

TEST(ArrivalTest, ParetoIntIsHeavyTailedWithinBounds) {
  Xoshiro256 rng(9);
  double sum = 0.0;
  std::uint64_t max_seen = 0;
  constexpr int kSamples = 200000;
  constexpr std::uint64_t kCap = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = pareto_int(rng, 1.0, 2.0, kCap);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, kCap);
    sum += static_cast<double>(v);
    max_seen = std::max(max_seen, v);
  }
  // Continuous Pareto(xm=1, alpha=2) has mean 2; flooring pulls the
  // integer mean toward 1.5.  Heavy tail: the max dwarfs the mean.
  const double mean = sum / kSamples;
  EXPECT_GT(mean, 1.4);
  EXPECT_LT(mean, 1.9);
  EXPECT_GT(max_seen, 100u);
}

TEST(ArrivalTest, ParetoIntRespectsTheCap) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = pareto_int(rng, 1.0, 1.1, 8);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 8u);
  }
}

TEST(ArrivalTest, DiurnalFactorIsAUnitEndpointBumpPeakingMidRun) {
  EXPECT_DOUBLE_EQ(diurnal_factor(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(diurnal_factor(1.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(diurnal_factor(0.5, 10.0), 11.0);
  EXPECT_DOUBLE_EQ(diurnal_factor(0.25, 10.0), diurnal_factor(0.75, 10.0));
  // Out-of-range progress clamps to the endpoints.
  EXPECT_DOUBLE_EQ(diurnal_factor(-3.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(diurnal_factor(2.0, 10.0), 1.0);
  // Rising on the first half.
  EXPECT_LT(diurnal_factor(0.1, 10.0), diurnal_factor(0.3, 10.0));
  EXPECT_LT(diurnal_factor(0.3, 10.0), diurnal_factor(0.5, 10.0));
}

TEST(ArrivalTest, OnOffModulatorMixesBurstAndIdleRegimes) {
  Xoshiro256 a(321);
  Xoshiro256 b(321);
  OnOffModulator mod_a({});
  OnOffModulator mod_b({});
  std::uint64_t min_gap = ~0ull;
  std::uint64_t max_gap = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t gap = mod_a.next_gap(a, 100.0);
    EXPECT_EQ(mod_b.next_gap(b, 100.0), gap);  // same seed, same stream
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
  }
  // In-burst gaps draw from mean 100/8; idle gaps from mean 100*8.
  EXPECT_LT(min_gap, 50u);
  EXPECT_GT(max_gap, 300u);
}

// --- Admission control (service-side invoke queue) ---

LinkFaults quiet_wire() {
  LinkFaults f;
  f.latency = 2;
  f.jitter = 1;
  return f;
}

ClusterParams admission_params(std::size_t queue_limit, ShedPolicy policy) {
  ClusterParams p;
  p.pool = 5;
  p.wire.to_replica = quiet_wire();
  p.wire.from_replica = quiet_wire();
  p.policy.min_replicas = 3;
  p.policy.max_replicas = 5;
  p.policy.step = 2;
  p.policy.lower_after = 1u << 20;
  p.call.deadline = 15;
  p.call.retry.max_attempts = 2;
  p.call.retry.initial_backoff = 4;
  p.call.retry.max_backoff = 8;
  p.heartbeat_period = 4;
  p.membership.deadline = 10;
  p.admission.queue_limit = queue_limit;
  p.admission.policy = policy;
  return p;
}

Ballot correct_value(Ballot input) { return input * 2 + 1; }

/// Tagged invoke outcome: which input, and whether admission shed it.
struct Tagged {
  Ballot input;
  bool shed;
};

void burst_invoke(Simulator& sim, ReplicatedService& service,
                  std::vector<Tagged>& outcomes, Ballot count) {
  sim.schedule_at(1, [&service, &outcomes, count] {
    for (Ballot k = 0; k < count; ++k) {
      service.invoke(k, [&outcomes, k](InvokeOutcome o, const RoundReport& r) {
        outcomes.push_back({k, o == InvokeOutcome::kShed});
        if (o == InvokeOutcome::kShed) {
          // A shed report is empty: no round ran.
          EXPECT_FALSE(r.success);
          EXPECT_EQ(r.n, 0u);
        } else {
          EXPECT_TRUE(r.success);
          EXPECT_EQ(r.value, correct_value(k));
        }
      });
    }
  });
}

std::vector<Ballot> picked(const std::vector<Tagged>& outcomes, bool shed) {
  std::vector<Ballot> v;
  for (const Tagged& t : outcomes) {
    if (t.shed == shed) v.push_back(t.input);
  }
  return v;
}

TEST(AdmissionTest, RejectNewestShedsTheIncomingInvokeAtTheLimit) {
  Simulator sim;
  ReplicatedService service(
      sim, admission_params(2, ShedPolicy::kRejectNewest),
      [](Ballot input, std::size_t) { return correct_value(input); }, 11);
  service.start();

  std::vector<Tagged> outcomes;
  burst_invoke(sim, service, outcomes, 6);
  sim.run_until(400);

  ASSERT_EQ(outcomes.size(), 6u);
  // 0 runs, 1 and 2 queue, 3..5 arrive full and are tail-dropped.
  EXPECT_EQ(picked(outcomes, /*shed=*/true), (std::vector<Ballot>{3, 4, 5}));
  EXPECT_EQ(picked(outcomes, /*shed=*/false), (std::vector<Ballot>{0, 1, 2}));
  EXPECT_EQ(service.counters().admitted, 3u);
  EXPECT_EQ(service.counters().shed, 3u);
  EXPECT_EQ(service.counters().queue_peak, 2u);
  EXPECT_EQ(service.counters().rounds, 3u);
}

TEST(AdmissionTest, RejectOldestEvictsTheQueueHeadAndAdmitsTheTail) {
  Simulator sim;
  ReplicatedService service(
      sim, admission_params(2, ShedPolicy::kRejectOldest),
      [](Ballot input, std::size_t) { return correct_value(input); }, 12);
  service.start();

  std::vector<Tagged> outcomes;
  burst_invoke(sim, service, outcomes, 6);
  sim.run_until(400);

  ASSERT_EQ(outcomes.size(), 6u);
  // 0 runs; 1,2 queue; each later arrival evicts the then-oldest queued
  // invoke, so the freshest work survives: 4 and 5 complete, 1..3 shed in
  // arrival order.
  EXPECT_EQ(picked(outcomes, /*shed=*/true), (std::vector<Ballot>{1, 2, 3}));
  EXPECT_EQ(picked(outcomes, /*shed=*/false), (std::vector<Ballot>{0, 4, 5}));
  EXPECT_EQ(service.counters().admitted, 6u);  // 1..3 admitted, then evicted
  EXPECT_EQ(service.counters().evicted, 3u);
  EXPECT_EQ(service.counters().shed, 3u);
  EXPECT_EQ(service.counters().queue_peak, 2u);
  EXPECT_EQ(service.counters().rounds, 3u);
}

TEST(AdmissionTest, ProbabilisticShedsProportionallyAndBoundsTheQueue) {
  Simulator sim;
  ReplicatedService service(
      sim, admission_params(4, ShedPolicy::kProbabilistic),
      [](Ballot input, std::size_t) { return correct_value(input); }, 13);
  service.start();

  std::vector<Tagged> outcomes;
  burst_invoke(sim, service, outcomes, 40);
  sim.run_until(2000);

  // Every invoke resolved exactly once, one way or the other.
  ASSERT_EQ(outcomes.size(), 40u);
  const auto shed = picked(outcomes, /*shed=*/true).size();
  const auto completed = picked(outcomes, /*shed=*/false).size();
  EXPECT_EQ(shed + completed, 40u);
  EXPECT_EQ(service.counters().admitted + service.counters().shed, 40u);
  // P = depth/limit: some sheds, some admissions, never a queue overflow.
  EXPECT_GT(shed, 0u);
  EXPECT_GT(completed, 1u);
  EXPECT_LE(service.counters().queue_peak, 4u);
}

TEST(AdmissionTest, AdmittedInvokesAreRoundsEvictionsOrQueuedUnderEveryPolicy) {
  // Conservation: an admitted invoke runs a round, waits in the queue, or
  // is evicted from the queue head by reject-oldest — and only evictions
  // are both admitted and shed.
  for (const ShedPolicy policy : {ShedPolicy::kRejectNewest,
                                  ShedPolicy::kRejectOldest,
                                  ShedPolicy::kProbabilistic}) {
    SCOPED_TRACE(aft::cluster::to_string(policy));
    Simulator sim;
    aft::obs::MetricsRegistry metrics;
    const aft::obs::ScopedObs scope(nullptr, &metrics);
    ReplicatedService service(
        sim, admission_params(3, policy),
        [](Ballot input, std::size_t) { return correct_value(input); }, 15);
    service.start();
    const auto& c = service.counters();

    std::vector<Tagged> outcomes;
    burst_invoke(sim, service, outcomes, 30);
    sim.run_until(1);  // burst done: one round in flight, the rest queued or shed
    EXPECT_EQ(c.admitted, c.rounds + c.evicted + service.queue_depth() + 1);
    EXPECT_EQ(c.admitted + c.shed - c.evicted, 30u);

    sim.run_until(3000);
    ASSERT_EQ(outcomes.size(), 30u);
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_EQ(c.admitted, c.rounds + c.evicted);
    EXPECT_EQ(c.shed, picked(outcomes, /*shed=*/true).size());
    if (policy == ShedPolicy::kRejectOldest) {
      EXPECT_EQ(c.evicted, c.shed);  // every shed was a queued invoke
      EXPECT_GT(c.evicted, 0u);
    } else {
      EXPECT_EQ(c.evicted, 0u);
      EXPECT_GT(c.shed, 0u);
    }
#if !defined(AFT_OBS_DISABLED)
    EXPECT_EQ(metrics.counter("cluster.admission.evicted"), c.evicted);
    EXPECT_EQ(metrics.counter("cluster.admission.admitted"), c.admitted);
#endif
  }
}

TEST(AdmissionTest, UnboundedQueueNeverSheds) {
  Simulator sim;
  ReplicatedService service(
      sim, admission_params(0, ShedPolicy::kRejectNewest),
      [](Ballot input, std::size_t) { return correct_value(input); }, 14);
  service.start();

  std::vector<Tagged> outcomes;
  burst_invoke(sim, service, outcomes, 6);
  sim.run_until(400);

  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_TRUE(picked(outcomes, /*shed=*/true).empty());
  EXPECT_EQ(service.counters().shed, 0u);
  EXPECT_EQ(service.counters().queue_peak, 5u);
  EXPECT_EQ(service.counters().rounds, 6u);
}

// --- ClientPopulation end to end ---

TrafficParams small_traffic(std::size_t clients) {
  TrafficParams tp;
  tp.clients = clients;
  tp.warm_gap = 8.0;
  tp.overload_gap = 2.0;
  tp.recovery_gap = 8.0;
  tp.think_mean = 6.0;
  tp.session_cap = 16;
  tp.call.deadline = 2000;  // never the binding constraint in these runs
  tp.call.retry.max_attempts = 1;
  return tp;
}

struct PopulationRun {
  std::array<aft::load::PhaseStats, ClientPopulation::kPhases> phases;
  std::size_t peak_sessions = 0;
  std::uint64_t service_shed = 0;
};

PopulationRun run_population(std::size_t clients, Arrival arrival,
                             std::uint64_t seed) {
  Simulator sim;
  ReplicatedService service(
      sim, admission_params(4, ShedPolicy::kRejectNewest),
      [](Ballot input, std::size_t) { return correct_value(input); }, seed);
  TrafficParams tp = small_traffic(clients);
  tp.arrival = arrival;
  ClientPopulation population(sim, service, tp, seed + 100);
  service.start();
  population.start();
  while (!population.done() && sim.now() < 4'000'000 && sim.step()) {
  }
  EXPECT_TRUE(population.done());
  EXPECT_EQ(population.started_sessions(), clients);
  EXPECT_EQ(population.active_sessions(), 0u);

  PopulationRun out;
  for (std::size_t i = 0; i < ClientPopulation::kPhases; ++i) {
    out.phases[i] = population.phase(i);
  }
  out.peak_sessions = population.peak_sessions();
  out.service_shed = service.counters().shed;
  return out;
}

TEST(ClientPopulationTest, SmallPopulationCompletesWithConsistentTallies) {
  const PopulationRun run = run_population(300, Arrival::kPoisson, 41);

  // 20 / 60 / 20 phase split over 300 clients.
  EXPECT_EQ(run.phases[0].sessions, 60u);
  EXPECT_EQ(run.phases[1].sessions, 180u);
  EXPECT_EQ(run.phases[2].sessions, 60u);

  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  for (const auto& phase : run.phases) {
    // Every issued request resolved as exactly one of ok/shed/failed.
    EXPECT_EQ(phase.requests, phase.ok + phase.shed + phase.failed);
    EXPECT_GE(phase.requests, phase.sessions);  // >= 1 request per session
    EXPECT_EQ(phase.latency.count(), phase.ok + phase.failed);
    requests += phase.requests;
    ok += phase.ok;
    shed += phase.shed;
  }
  EXPECT_GT(requests, 300u);
  EXPECT_GT(ok, 0u);
  // The overload phase outruns a queue of 4: admission must have shed, and
  // the client-side shed tally is the service-side one.
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(shed, run.service_shed);
  EXPECT_GT(run.phases[1].shed, run.phases[0].shed);
}

TEST(ClientPopulationTest, SameSeedReproducesTheRunExactly) {
  const PopulationRun a = run_population(200, Arrival::kPoisson, 91);
  const PopulationRun b = run_population(200, Arrival::kPoisson, 91);
  EXPECT_EQ(a.peak_sessions, b.peak_sessions);
  EXPECT_EQ(a.service_shed, b.service_shed);
  for (std::size_t i = 0; i < ClientPopulation::kPhases; ++i) {
    EXPECT_EQ(a.phases[i].sessions, b.phases[i].sessions);
    EXPECT_EQ(a.phases[i].requests, b.phases[i].requests);
    EXPECT_EQ(a.phases[i].ok, b.phases[i].ok);
    EXPECT_EQ(a.phases[i].shed, b.phases[i].shed);
    EXPECT_EQ(a.phases[i].failed, b.phases[i].failed);
    EXPECT_EQ(a.phases[i].latency.count(), b.phases[i].latency.count());
    EXPECT_EQ(a.phases[i].latency.quantile(0.5), b.phases[i].latency.quantile(0.5));
    EXPECT_EQ(a.phases[i].latency.quantile(0.99), b.phases[i].latency.quantile(0.99));
  }
}

TEST(ClientPopulationTest, BurstyAndDiurnalArrivalsAlsoComplete) {
  for (Arrival arrival : {Arrival::kBursty, Arrival::kDiurnal}) {
    const PopulationRun run = run_population(150, arrival, 57);
    std::uint64_t sessions = 0;
    for (const auto& phase : run.phases) sessions += phase.sessions;
    EXPECT_EQ(sessions, 150u);
  }
}

TEST(ClientPopulationTest, NamesAreStable) {
  EXPECT_STREQ(aft::load::to_string(Arrival::kPoisson), "poisson");
  EXPECT_STREQ(aft::load::to_string(Arrival::kBursty), "bursty");
  EXPECT_STREQ(aft::load::to_string(Arrival::kDiurnal), "diurnal");
  EXPECT_STREQ(ClientPopulation::phase_name(0), "warm");
  EXPECT_STREQ(ClientPopulation::phase_name(1), "overload");
  EXPECT_STREQ(ClientPopulation::phase_name(2), "recovery");
}

}  // namespace
