// Tests for the replicated-service composition (src/cluster): fan-out
// rounds voted over network replicas, per-slot no-reply sentinels, the
// membership evict -> auto-reinstate round trip, ballot-stream suspicion
// and repair(), plus the campaign determinism and causal-chain guarantees
// the abl_cluster_adaptation bench (and its CI jobs) rely on.
//
// Heartbeats re-arm forever, so every scenario bounds the clock with
// run_until() — run_all() would never return.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/replica.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/campaign.hpp"
#include "vote/voting_farm.hpp"

#if !defined(AFT_OBS_DISABLED)
#include "obs/obs.hpp"
#include "trace_analysis.hpp"
#include "trace_reader.hpp"
#endif

namespace {

using aft::cluster::ClusterParams;
using aft::cluster::InvokeOutcome;
using aft::cluster::ReplicatedService;
using aft::net::LinkFaults;
using aft::sim::SimTime;
using aft::sim::Simulator;
using aft::vote::Ballot;
using aft::vote::RoundReport;

constexpr SimTime kRoundInterval = 30;

LinkFaults quiet_wire() {
  LinkFaults f;
  f.latency = 2;
  f.jitter = 1;
  return f;
}

/// A small pool with bench-like timing: fast heartbeats, a 10-tick
/// membership window, and fan-out calls that give up well inside one round
/// interval.
ClusterParams small_params(std::size_t pool) {
  ClusterParams p;
  p.pool = pool;
  p.wire.to_replica = quiet_wire();
  p.wire.from_replica = quiet_wire();
  p.policy.min_replicas = 3;
  p.policy.max_replicas = pool;
  p.policy.step = 2;
  p.policy.lower_after = 1u << 20;  // tests never exercise the lower path
  p.call.deadline = 15;
  p.call.retry.max_attempts = 2;
  p.call.retry.initial_backoff = 4;
  p.call.retry.max_backoff = 8;
  p.heartbeat_period = 4;
  p.membership.deadline = 10;
  p.reinstate_after_beats = 3;
  return p;
}

Ballot correct_value(Ballot input) { return input * 2 + 1; }

TEST(ClusterTest, ConstructionAndLifecycleValidation) {
  Simulator sim;
  EXPECT_THROW(ReplicatedService(sim, small_params(5), nullptr, 1),
               std::invalid_argument);
  EXPECT_THROW(ReplicatedService(
                   sim, small_params(2),
                   [](Ballot input, std::size_t) { return input; }, 1),
               std::invalid_argument);
  // A fan-out reply is tagged with its node index in 12 bits: node 4096
  // would alias into the slot bits and its reply land in the wrong slot.
  ClusterParams too_big = small_params(5);
  too_big.pool = ReplicatedService::kMaxPool + 1;
  EXPECT_THROW(ReplicatedService(
                   sim, too_big, [](Ballot input, std::size_t) { return input; }, 1),
               std::invalid_argument);
  ReplicatedService service(
      sim, small_params(5),
      [](Ballot input, std::size_t) { return correct_value(input); }, 1);
  EXPECT_THROW(service.invoke(1, nullptr), std::logic_error);
}

TEST(ClusterTest, CleanRoundsReachConsensusWithoutDissent) {
  Simulator sim;
  ReplicatedService service(
      sim, small_params(5),
      [](Ballot input, std::size_t) { return correct_value(input); }, 7);
  service.start();

  std::vector<RoundReport> reports;
  for (std::uint64_t k = 0; k < 5; ++k) {
    sim.schedule_at(k * kRoundInterval, [&service, &reports, k] {
      service.invoke(static_cast<Ballot>(k),
                     [&reports](InvokeOutcome, const RoundReport& r) {
                       reports.push_back(r);
                     });
    });
  }
  sim.run_until(5 * kRoundInterval + 200);

  ASSERT_EQ(reports.size(), 5u);
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(reports[k].success);
    EXPECT_EQ(reports[k].value, correct_value(static_cast<Ballot>(k)));
    EXPECT_EQ(reports[k].dissent, 0u);
    EXPECT_EQ(reports[k].n, 3u);  // min_replicas arity, never raised
  }
  EXPECT_EQ(service.counters().rounds, 5u);
  EXPECT_EQ(service.counters().no_quorum, 0u);
  EXPECT_EQ(service.counters().dissent_rounds, 0u);
  EXPECT_EQ(service.switchboard().raises(), 0u);
  EXPECT_EQ(service.live_count(), 5u);
}

TEST(ClusterTest, PartiallyResponsiveReplicaSetStillVotesAMajority) {
  // Replica 0 is partitioned before the first round: its slot reports the
  // per-slot sentinel, the two live replicas still form a majority, and
  // the dissent raises redundancy so spares absorb the loss.
  Simulator sim;
  ReplicatedService service(
      sim, small_params(5),
      [](Ballot input, std::size_t) { return correct_value(input); }, 11);
  service.start();
  service.link_to(0).partition();
  service.link_from(0).partition();

  std::vector<RoundReport> reports;
  constexpr std::uint64_t kRounds = 12;
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    sim.schedule_at(k * kRoundInterval, [&service, &reports] {
      service.invoke(42, [&reports](InvokeOutcome, const RoundReport& r) {
        reports.push_back(r);
      });
    });
  }
  sim.run_until(kRounds * kRoundInterval + 300);

  ASSERT_EQ(reports.size(), kRounds);
  for (const RoundReport& r : reports) {
    EXPECT_TRUE(r.success);  // the live majority always outvotes the hole
    EXPECT_EQ(r.value, correct_value(42));
  }
  // The first round voted short (sentinel dissent) and raised.
  EXPECT_GE(reports[0].dissent, 1u);
  EXPECT_GT(service.counters().dissent_rounds, 0u);
  EXPECT_EQ(service.counters().no_quorum, 0u);
  EXPECT_GE(service.switchboard().raises(), 1u);
  // The silent member was evicted, and later rounds substituted spares.
  EXPECT_EQ(service.counters().evictions, 1u);
  EXPECT_FALSE(service.eligible(0));
  EXPECT_GT(service.counters().substituted_rounds, 0u);
}

TEST(ClusterTest, NoQuorumWhenTheMajorityIsPartitioned) {
  Simulator sim;
  ClusterParams params = small_params(3);
  ReplicatedService service(
      sim, params,
      [](Ballot input, std::size_t) { return correct_value(input); }, 13);
  service.start();
  // Two of the three assigned replicas can never answer; their distinct
  // sentinels must not accidentally agree into a majority.
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    service.link_to(i).partition();
    service.link_from(i).partition();
  }

  std::vector<RoundReport> reports;
  sim.schedule_at(1, [&service, &reports] {
    service.invoke(42, [&reports](InvokeOutcome, const RoundReport& r) {
      reports.push_back(r);
    });
  });
  sim.run_until(400);

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].success);
  EXPECT_EQ(service.counters().no_quorum, 1u);
}

TEST(ClusterTest, EvictedMemberIsAutoReinstatedOnceItsBeatsResume) {
  Simulator sim;
  ReplicatedService service(
      sim, small_params(5),
      [](Ballot input, std::size_t) { return correct_value(input); }, 17);
  service.start();

  // Cut the member's wires: its heartbeats stop arriving and the miss
  // pattern drives the membership verdict down.
  service.link_to(0).partition();
  service.link_from(0).partition();
  sim.run_until(200);
  EXPECT_FALSE(service.membership().up(0));
  EXPECT_FALSE(service.eligible(0));
  EXPECT_EQ(service.counters().evictions, 1u);
  EXPECT_EQ(service.live_count(), 4u);
  // The eviction was pushed to the switchboard as an external disturbance.
  EXPECT_EQ(service.switchboard().disturbance_raises(), 1u);

  // Heal the wires only: the beats that get through ARE the evidence the
  // unit recovered — after reinstate_after_beats of them it is readmitted
  // without any administrative repair().
  service.link_to(0).heal();
  service.link_from(0).heal();
  sim.run_until(400);
  EXPECT_TRUE(service.membership().up(0));
  EXPECT_TRUE(service.eligible(0));
  EXPECT_EQ(service.counters().reinstatements, 1u);
  EXPECT_EQ(service.live_count(), 5u);
}

TEST(ClusterTest, FlappingMemberRestartsItsReinstatementBeatCount) {
  // Regression: auto-reinstatement demands `reinstate_after_beats`
  // *consecutive* beats.  Pre-fix the resumed-beat count survived misses
  // while the member stayed down, so a flapping wire (a few beats leak
  // through, silence, a few more) accumulated stale credit across the gaps
  // and readmitted a member that never actually sustained a heartbeat
  // stream.
#if !defined(AFT_OBS_DISABLED)
  aft::obs::TraceSink sink;
  const aft::obs::ScopedObs scope(&sink, nullptr);
#endif
  Simulator sim;
  ClusterParams params = small_params(5);
  // High enough that one brief heal window (10 ticks ~ 2-3 beats) can
  // never legitimately reinstate, but three windows' stale credit would.
  params.reinstate_after_beats = 5;
  ReplicatedService service(
      sim, params,
      [](Ballot input, std::size_t) { return correct_value(input); }, 29);
  service.start();
  service.link_to(0).partition();
  service.link_from(0).partition();
  sim.run_until(100);
  ASSERT_FALSE(service.membership().up(0));
  ASSERT_EQ(service.counters().evictions, 1u);

  // Three flap cycles: heal for 10 ticks (a couple of beats leak through),
  // then 40 silent ticks (guaranteed missed windows at deadline 10).
  for (SimTime cycle = 0; cycle < 3; ++cycle) {
    sim.schedule_at(100 + cycle * 50, [&service] {
      service.link_to(0).heal();
      service.link_from(0).heal();
    });
    sim.schedule_at(110 + cycle * 50, [&service] {
      service.link_to(0).partition();
      service.link_from(0).partition();
    });
  }
  sim.run_until(248);
  // The count restarted at every miss: no cycle reached 5 consecutive
  // beats, so the flapping member is still out (pre-fix, the stale
  // credit summed across cycles and reinstated it here).
  EXPECT_EQ(service.counters().reinstatements, 0u);
  EXPECT_FALSE(service.membership().up(0));

  // A sustained heal is still the legitimate path back in.
  service.link_to(0).heal();
  service.link_from(0).heal();
  sim.run_until(400);
  EXPECT_EQ(service.counters().reinstatements, 1u);
  EXPECT_TRUE(service.membership().up(0));
  EXPECT_TRUE(service.eligible(0));
#if !defined(AFT_OBS_DISABLED)
  // The resets themselves are visible in the trace plane.
  EXPECT_NE(sink.jsonl().find(R"("event":"heal-reset")"), std::string::npos);
#endif
}

TEST(ClusterTest, PersistentValueCorrupterIsSuspectedUntilRepaired) {
  Simulator sim;
  bool corrupting = true;
  ReplicatedService service(
      sim, small_params(5),
      [&corrupting](Ballot input, std::size_t replica) {
        const Ballot correct = correct_value(input);
        if (corrupting && replica == 0) return correct + 13;
        return correct;
      },
      19);
  service.start();

  constexpr std::uint64_t kRounds = 12;
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    sim.schedule_at(k * kRoundInterval, [&service] { service.invoke(42); });
  }
  sim.run_until(kRounds * kRoundInterval + 300);

  // The wire never misbehaved — membership still reports the corrupter up
  // — but the ballot discriminator retired it at the vote layer, so it no
  // longer counts as live.
  EXPECT_EQ(service.counters().evictions, 0u);
  EXPECT_TRUE(service.membership().up(0));
  EXPECT_EQ(service.live_count(), 4u);
  EXPECT_TRUE(service.suspect(0));
  EXPECT_FALSE(service.eligible(0));
  EXPECT_EQ(service.counters().suspects, 1u);
  EXPECT_GT(service.counters().substituted_rounds, 0u);

  // Sect. 3.2 unit replacement: fix the fault, clear the evidence.
  corrupting = false;
  service.repair(0);
  EXPECT_FALSE(service.suspect(0));
  EXPECT_TRUE(service.eligible(0));
  EXPECT_EQ(service.live_count(), 5u);
  EXPECT_EQ(service.counters().cleared, 1u);

  // The repaired replica votes with the majority again.
  std::vector<RoundReport> reports;
  sim.schedule_at(sim.now() + kRoundInterval, [&service, &reports] {
    service.invoke(7, [&reports](InvokeOutcome, const RoundReport& r) {
      reports.push_back(r);
    });
  });
  sim.run_until(sim.now() + kRoundInterval + 200);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].success);
  EXPECT_EQ(reports[0].value, correct_value(7));
}

TEST(ClusterTest, MidRoundRaiseVotesTheRaisedArityWithSentinels) {
  // Replica 2's request wire is slow, so the first round stays in flight
  // for ~100 ticks.  Meanwhile spare replica 4 stops beating: its eviction
  // (three missed 10-tick windows) raises the arity 3 -> 5 before the
  // round finalizes.  The round votes
  // the raised arity, the two slots it never collected vote their
  // sentinels, and the farm counts one ballot per voted slot.
  Simulator sim;
  ClusterParams params = small_params(5);
  params.call.deadline = 300;
  params.call.retry.max_attempts = 1;
  ReplicatedService service(
      sim, params,
      [](Ballot input, std::size_t) { return correct_value(input); }, 23);
  service.start();
  LinkFaults slow = quiet_wire();
  slow.latency = 100;
  slow.jitter = 0;
  service.link_to(2).set_faults(slow);

  std::vector<RoundReport> reports;
  std::size_t arity_at_invoke = 0;
  std::vector<Ballot> voted;
  auto record = [&reports, &voted, &service](InvokeOutcome,
                                             const RoundReport& r) {
    reports.push_back(r);
    voted = service.farm().last_ballots();
  };
  sim.schedule_at(20, [&] {
    arity_at_invoke = service.farm().replicas();
    service.invoke(5, record);
  });
  sim.schedule_at(21, [&service] { service.link_from(4).partition(); });
  sim.run_until(400);

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(arity_at_invoke, 3u);
  EXPECT_EQ(service.counters().evictions, 1u);
  EXPECT_EQ(service.switchboard().disturbance_raises(), 1u);
  const RoundReport& r = reports[0];
  EXPECT_EQ(r.n, 5u);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.value, correct_value(5));
  EXPECT_EQ(r.dissent, 2u);
  ASSERT_EQ(voted.size(), 5u);
  for (std::size_t slot = 0; slot < 3; ++slot) {
    EXPECT_EQ(voted[slot], correct_value(5));
  }
  EXPECT_EQ(voted[3], ReplicatedService::no_reply(3));
  EXPECT_EQ(voted[4], ReplicatedService::no_reply(4));
  // Neither sentinel slot was assigned, so nobody was judged for it.
  EXPECT_EQ(service.counters().suspects, 0u);

  // A later round at the raised arity, short one live replica.
  sim.schedule_at(sim.now() + 1, [&] { service.invoke(6, record); });
  sim.run_until(sim.now() + 400);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[1].n, 5u);
  EXPECT_EQ(service.counters().short_rounds, 1u);

  std::uint64_t ballots = 0;
  for (const RoundReport& report : reports) ballots += report.n;
  EXPECT_EQ(service.farm().replica_invocations(), ballots);
  EXPECT_EQ(service.farm().rounds(), service.counters().rounds);
}

// --- Campaign determinism ------------------------------------------------------

/// Per-job outcome tallies: rounds, no-quorum, dissent rounds, evictions,
/// reinstatements, raises.
using Outcome = std::array<std::uint64_t, 6>;

Outcome run_job(std::size_t job) {
  const std::uint64_t seed = 77000 + 23 * static_cast<std::uint64_t>(job);
  Simulator sim;
  bool corrupting = false;
  ReplicatedService service(
      sim, small_params(5),
      [&corrupting](Ballot input, std::size_t replica) {
        const Ballot correct = correct_value(input);
        if (corrupting && replica == 1) return correct + 5;
        return correct;
      },
      seed);
  service.start();

  constexpr std::uint64_t kRounds = 15;
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    sim.schedule_at(k * kRoundInterval, [&service] { service.invoke(42); });
  }
  switch (job % 4) {
    case 0:
      break;  // clean baseline
    case 1:  // mid-run partition + heal of replica 0
      sim.schedule_at(100, [&service] {
        service.link_to(0).partition();
        service.link_from(0).partition();
      });
      sim.schedule_at(300, [&service] {
        service.link_to(0).heal();
        service.link_from(0).heal();
      });
      break;
    case 2: {  // lossy wires on replica 2
      sim.schedule_at(100, [&service] {
        LinkFaults lossy = quiet_wire();
        lossy.drop = 0.4;
        service.link_to(2).set_faults(lossy);
        service.link_from(2).set_faults(lossy);
      });
      break;
    }
    case 3:  // value corruption window
      sim.schedule_at(100, [&corrupting] { corrupting = true; });
      sim.schedule_at(300, [&corrupting] { corrupting = false; });
      break;
  }
  sim.run_until(kRounds * kRoundInterval + 300);
  return Outcome{service.counters().rounds,       service.counters().no_quorum,
                 service.counters().dissent_rounds, service.counters().evictions,
                 service.counters().reinstatements,
                 service.switchboard().raises()};
}

#if !defined(AFT_OBS_DISABLED)

struct CampaignOutput {
  std::string trace;
  std::string metrics;
  std::vector<Outcome> outcomes;
};

CampaignOutput run_matrix(unsigned threads) {
  constexpr std::size_t kJobs = 8;
  CampaignOutput output;
  aft::obs::TraceSink sink;
  aft::obs::MetricsRegistry metrics;
  {
    const aft::obs::ScopedObs scope(&sink, &metrics);
    output.outcomes = aft::util::run_campaigns(
        kJobs, [](std::size_t job) { return run_job(job); }, threads);
  }
  output.trace = sink.jsonl();
  output.metrics = metrics.json();
  return output;
}

TEST(ClusterDeterminismTest, CampaignIsByteIdenticalAcrossThreadCounts) {
  const CampaignOutput serial = run_matrix(1);
  const CampaignOutput parallel = run_matrix(8);
  EXPECT_EQ(parallel.outcomes, serial.outcomes);
  EXPECT_EQ(parallel.metrics, serial.metrics);
  EXPECT_EQ(parallel.trace, serial.trace);

  // Every job completed its full round schedule, and the degraded jobs
  // actually exercised the adaptation paths.
  for (const Outcome& out : serial.outcomes) {
    EXPECT_EQ(out[0], 15u);
  }
  std::uint64_t dissent = 0;
  std::uint64_t evictions = 0;
  for (const Outcome& out : serial.outcomes) {
    dissent += out[2];
    evictions += out[3];
  }
  EXPECT_GT(dissent, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_NE(serial.trace.find("cluster.replica"), std::string::npos);
}

// --- Causality plane -----------------------------------------------------------

TEST(ClusterTraceTest, RaiseChainsBackToTheDroppedHeartbeatFrame) {
  // The acceptance chain, in-process: partition a member, let membership
  // evict it, and verify the switchboard raise's causal ancestry walks —
  // root first — from the physical heartbeat drop through member-down and
  // evict to the disturbance that resized the cluster.
  aft::obs::TraceSink sink;
  std::string jsonl;
  {
    const aft::obs::ScopedObs scope(&sink, nullptr);
    Simulator sim;
    ReplicatedService service(
        sim, small_params(5),
        [](Ballot input, std::size_t) { return correct_value(input); }, 23);
    service.start();
    service.link_to(0).partition();
    service.link_from(0).partition();
    sim.run_until(200);
    EXPECT_EQ(service.switchboard().disturbance_raises(), 1u);
    jsonl = sink.jsonl();
  }

  std::string error;
  const auto trace = aft::tools::parse_trace_data(jsonl, error);
  ASSERT_TRUE(trace.has_value()) << error;

  const aft::tools::TraceEvent* raise = nullptr;
  for (const aft::tools::TraceEvent& e : trace->events) {
    if (e.component == "autonomic.switchboard" && e.event == "raise") {
      raise = &e;
      break;
    }
  }
  ASSERT_NE(raise, nullptr);

  const std::vector<const aft::tools::TraceEvent*> chain =
      aft::tools::causal_chain(*trace, raise->seq);
  ASSERT_GE(chain.size(), 4u);
  auto stage = [&chain](const char* component, const char* event) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chain[i]->component == component && chain[i]->event == event) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return std::ptrdiff_t{-1};
  };
  const std::ptrdiff_t drop = stage("net.link", "drop");
  const std::ptrdiff_t down = stage("net.membership", "member-down");
  const std::ptrdiff_t evict = stage("cluster.replica", "evict");
  const std::ptrdiff_t disturbance =
      stage("autonomic.switchboard", "disturbance");
  ASSERT_GE(drop, 0);
  ASSERT_GE(down, 0);
  ASSERT_GE(evict, 0);
  ASSERT_GE(disturbance, 0);
  // Root first: physical loss -> verdict -> eviction -> actuation.
  EXPECT_LT(drop, down);
  EXPECT_LT(down, evict);
  EXPECT_LT(evict, disturbance);
  // The root evidence is the member's own heartbeat the wire ate.
  const std::string* kind = chain[static_cast<std::size_t>(drop)]->field("kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(*kind, "heartbeat");
  // `aft_trace why` renders the same story.
  const std::string why = aft::tools::render_why(*trace, raise->seq);
  EXPECT_NE(why.find("member-down"), std::string::npos);
  EXPECT_NE(why.find("drop"), std::string::npos);
}

TEST(ClusterTraceTest, QueuedInvokeRoundChainsToItsOriginalCaller) {
  // Regression: a queued invoke()'s round must carry the causal context of
  // the caller that enqueued it.  Pre-fix the dequeued round ran under
  // whatever context happened to complete the *previous* round, so
  // `aft_trace why` blamed an unrelated caller for the queued work.
  aft::obs::TraceSink sink;
  std::string jsonl;
  {
    const aft::obs::ScopedObs scope(&sink, nullptr);
    Simulator sim;
    ReplicatedService service(
        sim, small_params(5),
        [](Ballot input, std::size_t) { return correct_value(input); }, 31);
    service.start();
    sim.schedule_at(5, [&service] {
      aft::obs::TraceSink* const s = aft::obs::trace();
      ASSERT_NE(s, nullptr);
      const aft::obs::EventId ambient = s->cause();
      // Caller alpha starts a round immediately.
      const aft::obs::EventId alpha =
          s->emit("test.caller", "alpha", {{"caller", "alpha"}});
      s->set_cause(alpha);
      service.invoke(1);
      s->set_cause(ambient);
      // Caller beta arrives while alpha's round is in flight: queued.
      const aft::obs::EventId beta =
          s->emit("test.caller", "beta", {{"caller", "beta"}});
      s->set_cause(beta);
      service.invoke(2);
      s->set_cause(ambient);
    });
    sim.run_until(300);
    EXPECT_EQ(service.counters().rounds, 2u);
    jsonl = sink.jsonl();
  }

  std::string error;
  const auto trace = aft::tools::parse_trace_data(jsonl, error);
  ASSERT_TRUE(trace.has_value()) << error;

  const aft::tools::TraceEvent* second_round = nullptr;
  for (const aft::tools::TraceEvent& e : trace->events) {
    if (e.component != "cluster.coordinator" || e.event != "round") continue;
    const std::string* round = e.field("round");
    if (round != nullptr && *round == "2") {
      second_round = &e;
      break;
    }
  }
  ASSERT_NE(second_round, nullptr);

  const std::vector<const aft::tools::TraceEvent*> chain =
      aft::tools::causal_chain(*trace, second_round->seq);
  bool saw_beta = false;
  bool saw_alpha = false;
  for (const aft::tools::TraceEvent* e : chain) {
    if (e->component != "test.caller") continue;
    saw_beta = saw_beta || e->event == "beta";
    saw_alpha = saw_alpha || e->event == "alpha";
  }
  EXPECT_TRUE(saw_beta);    // the round chains to the caller that queued it
  EXPECT_FALSE(saw_alpha);  // ...and not to the earlier, unrelated caller
  // `aft_trace why` tells the same story.
  const std::string why = aft::tools::render_why(*trace, second_round->seq);
  EXPECT_NE(why.find("beta"), std::string::npos);
  EXPECT_EQ(why.find("alpha"), std::string::npos);
}

#else  // AFT_OBS_DISABLED

TEST(ClusterDeterminismTest, OutcomesAreIdenticalAcrossThreadCounts) {
  constexpr std::size_t kJobs = 8;
  const auto serial = aft::util::run_campaigns(
      kJobs, [](std::size_t job) { return run_job(job); }, 1);
  const auto parallel = aft::util::run_campaigns(
      kJobs, [](std::size_t job) { return run_job(job); }, 8);
  EXPECT_EQ(parallel, serial);
}

#endif  // AFT_OBS_DISABLED

}  // namespace
