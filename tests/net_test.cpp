// Tests for the simulated network substrate: Link fault models, RetryPolicy
// backoff math, the CircuitBreaker state machine, Endpoint RPC semantics
// (deadline, retry, breaker, stale-response handling), BusBridge topic
// forwarding, and heartbeat-based Membership over lossy links.
//
// Everything asserts on plain counters (LinkCounters, RpcCounters, breaker
// tallies), never on metrics or trace contents, so the whole file also runs
// under -DAFT_OBS=OFF.  One exception: the breaker-rejection quantile
// regression is about metric routing itself, so it is compiled only when
// obs is on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/event_bus.hpp"
#include "net/breaker.hpp"
#include "net/bridge.hpp"
#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/membership.hpp"
#include "net/retry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

#if !defined(AFT_OBS_DISABLED)
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#endif

namespace {

using aft::net::BusBridge;
using aft::net::CallOptions;
using aft::net::CircuitBreaker;
using aft::net::Endpoint;
using aft::net::Frame;
using aft::net::FrameKind;
using aft::net::Link;
using aft::net::LinkFaults;
using aft::net::Membership;
using aft::net::RetryPolicy;
using aft::net::RpcResult;
using aft::net::RpcStatus;
using aft::sim::Simulator;
using aft::sim::SimTime;

Frame data_frame(std::uint64_t id) {
  Frame f;
  f.kind = FrameKind::kData;
  f.id = id;
  return f;
}

// --- Link ----------------------------------------------------------------------

TEST(LinkTest, ZeroLatencyRejected) {
  Simulator sim;
  LinkFaults faults;
  faults.latency = 0;
  EXPECT_THROW(Link(sim, "a->b", faults, 1), std::invalid_argument);
}

TEST(LinkTest, LosslessDeliversInOrderWithFixedLatency) {
  Simulator sim;
  LinkFaults faults;
  faults.latency = 3;
  Link link(sim, "a->b", faults, 1);
  std::vector<std::pair<SimTime, std::uint64_t>> arrivals;
  link.set_receiver([&](Frame&& f) { arrivals.emplace_back(sim.now(), f.id); });
  for (std::uint64_t i = 0; i < 5; ++i) {
    sim.schedule_at(i, [&link, i] { link.send(data_frame(i)); });
  }
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(arrivals[i].first, i + 3);
    EXPECT_EQ(arrivals[i].second, i);
  }
  EXPECT_EQ(link.counters().sent, 5u);
  EXPECT_EQ(link.counters().delivered, 5u);
  EXPECT_EQ(link.counters().dropped, 0u);
  EXPECT_EQ(link.in_flight(), 0u);
  EXPECT_TRUE(faults.lossless());
}

TEST(LinkTest, DropAllLosesEveryFrame) {
  Simulator sim;
  LinkFaults faults;
  faults.drop = 1.0;
  Link link(sim, "a->b", faults, 2);
  std::size_t received = 0;
  link.set_receiver([&](Frame&&) { ++received; });
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(link.send(data_frame(i)));
  }
  sim.run_all();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(link.counters().sent, 10u);
  EXPECT_EQ(link.counters().dropped, 10u);
  EXPECT_EQ(link.counters().delivered, 0u);
}

TEST(LinkTest, SeededDropSplitsSentIntoDeliveredPlusDropped) {
  const auto run = [](std::uint64_t seed) {
    Simulator sim;
    LinkFaults faults;
    faults.drop = 0.5;
    Link link(sim, "a->b", faults, seed);
    link.set_receiver([](Frame&&) {});
    for (std::uint64_t i = 0; i < 100; ++i) link.send(data_frame(i));
    sim.run_all();
    return link.counters();
  };
  const auto c = run(7);
  EXPECT_EQ(c.delivered + c.dropped, 100u);
  EXPECT_GT(c.delivered, 0u);
  EXPECT_GT(c.dropped, 0u);
  // Same seed, same fault model, same send sequence: identical wire history.
  const auto again = run(7);
  EXPECT_EQ(again.delivered, c.delivered);
  EXPECT_EQ(again.dropped, c.dropped);
}

TEST(LinkTest, DuplicateAllDeliversTwoCopies) {
  Simulator sim;
  LinkFaults faults;
  faults.duplicate = 1.0;
  Link link(sim, "a->b", faults, 3);
  std::vector<std::uint64_t> ids;
  link.set_receiver([&](Frame&& f) { ids.push_back(f.id); });
  for (std::uint64_t i = 0; i < 10; ++i) link.send(data_frame(i));
  sim.run_all();
  EXPECT_EQ(link.counters().sent, 10u);
  EXPECT_EQ(link.counters().duplicated, 10u);
  EXPECT_EQ(link.counters().delivered, 20u);
  ASSERT_EQ(ids.size(), 20u);
}

TEST(LinkTest, ReorderHoldbackLetsLaterFramesOvertake) {
  const auto run = [] {
    Simulator sim;
    LinkFaults faults;
    faults.latency = 1;
    faults.reorder = 0.35;
    Link link(sim, "a->b", faults, 11);
    std::vector<std::uint64_t> ids;
    link.set_receiver([&](Frame&& f) { ids.push_back(f.id); });
    for (std::uint64_t i = 0; i < 20; ++i) {
      sim.schedule_at(i, [&link, i] { link.send(data_frame(i)); });
    }
    sim.run_all();
    return std::pair(ids, link.counters());
  };
  const auto [ids, counters] = run();
  ASSERT_EQ(ids.size(), 20u);
  EXPECT_GT(counters.reordered, 0u);
  // At least one held-back frame was overtaken by a later send.
  bool inverted = false;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] < ids[i - 1]) inverted = true;
  }
  EXPECT_TRUE(inverted);
  // And the arrival sequence replays identically.
  const auto [ids2, counters2] = run();
  EXPECT_EQ(ids2, ids);
  EXPECT_EQ(counters2.reordered, counters.reordered);
}

TEST(LinkTest, JitterBoundedAndDeterministic) {
  const auto run = [] {
    Simulator sim;
    LinkFaults faults;
    faults.latency = 2;
    faults.jitter = 5;
    Link link(sim, "a->b", faults, 13);
    std::vector<SimTime> times;
    link.set_receiver([&](Frame&&) { times.push_back(sim.now()); });
    for (std::uint64_t i = 0; i < 30; ++i) link.send(data_frame(i));
    sim.run_all();
    return times;
  };
  const auto times = run();
  ASSERT_EQ(times.size(), 30u);
  for (const SimTime t : times) {
    EXPECT_GE(t, 2u);
    EXPECT_LE(t, 7u);
  }
  EXPECT_EQ(run(), times);
}

TEST(LinkTest, PartitionSwallowsSendsButInFlightFramesArrive) {
  Simulator sim;
  LinkFaults faults;
  faults.latency = 5;
  Link link(sim, "a->b", faults, 4);
  std::vector<std::uint64_t> ids;
  link.set_receiver([&](Frame&& f) { ids.push_back(f.id); });

  EXPECT_TRUE(link.send(data_frame(1)));  // leaves before the cut
  link.partition();
  EXPECT_TRUE(link.partitioned());
  EXPECT_FALSE(link.send(data_frame(2)));  // swallowed
  sim.run_all();
  EXPECT_EQ(ids, std::vector<std::uint64_t>{1});
  EXPECT_EQ(link.counters().partition_drops, 1u);
  EXPECT_EQ(link.counters().dropped, 1u);

  link.heal();
  EXPECT_FALSE(link.partitioned());
  EXPECT_TRUE(link.send(data_frame(3)));
  sim.run_all();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
}

TEST(LinkTest, FramesWithNoReceiverCountAsDropped) {
  Simulator sim;
  Link link(sim, "a->b", LinkFaults{}, 5);
  link.send(data_frame(1));
  sim.run_all();
  EXPECT_EQ(link.counters().delivered, 0u);
  EXPECT_EQ(link.counters().dropped, 1u);
}

// --- RetryPolicy ---------------------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy;
  policy.initial_backoff = 2;
  policy.multiplier = 2.0;
  policy.max_backoff = 16;
  aft::util::Xoshiro256 rng(1);
  EXPECT_EQ(policy.backoff(1, rng), 2u);
  EXPECT_EQ(policy.backoff(2, rng), 4u);
  EXPECT_EQ(policy.backoff(3, rng), 8u);
  EXPECT_EQ(policy.backoff(4, rng), 16u);
  EXPECT_EQ(policy.backoff(5, rng), 16u);  // clamped
  EXPECT_EQ(policy.backoff(0, rng), 2u);   // treated as attempt 1
}

TEST(RetryPolicyTest, JitterIsBoundedAndSeedDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff = 8;
  policy.multiplier = 2.0;
  policy.max_backoff = 64;
  policy.jitter = 0.5;
  const auto draw = [&policy](std::uint64_t seed) {
    aft::util::Xoshiro256 rng(seed);
    std::vector<SimTime> delays;
    for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
      delays.push_back(policy.backoff(attempt, rng));
    }
    return delays;
  };
  const auto delays = draw(99);
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    const SimTime base = std::min<SimTime>(8u << (attempt - 1), 64u);
    EXPECT_GE(delays[attempt - 1], base);
    EXPECT_LE(delays[attempt - 1], base + base / 2);
  }
  EXPECT_EQ(draw(99), delays);
}

TEST(RetryPolicyTest, NoneNeverRetries) {
  EXPECT_EQ(RetryPolicy::none().max_attempts, 1u);
}

// --- CircuitBreaker ------------------------------------------------------------

TEST(BreakerTest, LifecycleClosedOpenHalfOpenClosed) {
  Simulator sim;
  CircuitBreaker::Params params;
  params.cooldown = 10;
  params.probes = 1;
  CircuitBreaker breaker(sim, "to-b", params);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // Four straight failures push the score past the high threshold (3.0).
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(breaker.allow());
    breaker.record(false);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // Open rejects until the cooldown elapses.
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.rejected(), 1u);
  sim.advance_to(10);

  // First caller after cooldown takes the (single) probe slot.
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // probe budget exhausted
  EXPECT_EQ(breaker.rejected(), 2u);

  // A failed probe is conclusive: back to open with a fresh cooldown.
  breaker.record(false);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow());

  // Sustained probe successes decay the evidence below the low threshold.
  // Each probe completion hands back its own token — only that releases
  // the probe slot for the next one.
  sim.advance_to(20);
  int probes = 0;
  while (breaker.state() != CircuitBreaker::State::kClosed && probes < 32) {
    CircuitBreaker::ProbeToken token = CircuitBreaker::kNotAProbe;
    ASSERT_TRUE(breaker.allow(&token));
    EXPECT_NE(token, CircuitBreaker::kNotAProbe);
    breaker.record(true, token);
    ++probes;
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_GT(probes, 1);  // one good probe is not enough
  EXPECT_EQ(breaker.closes(), 1u);
  EXPECT_TRUE(breaker.allow());
}

TEST(BreakerTest, StragglerFromClosedStateDoesNotFreeAProbeSlot) {
  // Regression: record() used to decrement the half-open probe budget for
  // *any* completion.  A call admitted while the breaker was still closed
  // could straggle in after the open -> half-open transition and free a
  // probe slot it never took, letting two probes fly where the budget
  // allows one.
  Simulator sim;
  CircuitBreaker::Params params;
  params.cooldown = 10;
  params.probes = 1;
  CircuitBreaker breaker(sim, "to-b", params);

  // A call admitted while closed: no probe token.
  CircuitBreaker::ProbeToken straggler = 99;
  ASSERT_TRUE(breaker.allow(&straggler));
  EXPECT_EQ(straggler, CircuitBreaker::kNotAProbe);

  // Four other calls fail and open the breaker; cooldown elapses.
  for (int i = 0; i < 4; ++i) breaker.record(false);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  sim.advance_to(10);

  // The first caller after cooldown takes the single probe slot.
  CircuitBreaker::ProbeToken probe = CircuitBreaker::kNotAProbe;
  ASSERT_TRUE(breaker.allow(&probe));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_NE(probe, CircuitBreaker::kNotAProbe);
  EXPECT_FALSE(breaker.allow());  // budget spent

  // The straggler finally completes.  Its success feeds the alpha-count as
  // evidence, but it must NOT release the slot the real probe still holds.
  breaker.record(true, straggler);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // used to pass: the slot was wrongly freed

  // Only the probe's own completion frees the budget.
  breaker.record(true, probe);
  EXPECT_TRUE(breaker.allow(&probe));
  EXPECT_NE(probe, CircuitBreaker::kNotAProbe);
}

TEST(BreakerTest, StaleProbeTokenFromEarlierEpisodeDoesNotFreeASlot) {
  // A probe launched in one half-open episode may outlive it (the breaker
  // re-opens, cools down, half-opens again).  Its late completion carries a
  // token from the previous episode and must not free the new episode's
  // slot.
  Simulator sim;
  CircuitBreaker::Params params;
  params.cooldown = 10;
  params.probes = 1;
  CircuitBreaker breaker(sim, "to-b", params);
  for (int i = 0; i < 4; ++i) breaker.record(false);
  sim.advance_to(10);

  CircuitBreaker::ProbeToken old_probe = CircuitBreaker::kNotAProbe;
  ASSERT_TRUE(breaker.allow(&old_probe));
  // A *different* in-flight attempt fails conclusively: back to open.
  breaker.record(false);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  sim.advance_to(20);

  CircuitBreaker::ProbeToken new_probe = CircuitBreaker::kNotAProbe;
  ASSERT_TRUE(breaker.allow(&new_probe));
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_NE(new_probe, old_probe);
  EXPECT_FALSE(breaker.allow());

  breaker.record(true, old_probe);  // the first episode's probe straggles in
  EXPECT_FALSE(breaker.allow());    // the new episode's slot is still taken
}

// --- Endpoint RPC --------------------------------------------------------------

/// Client and server joined by one link pair.  `fwd` carries requests
/// (client -> server), `rev` carries responses.
struct RpcWorld {
  Simulator sim;
  Link fwd;
  Link rev;
  Endpoint client;
  Endpoint server;

  explicit RpcWorld(LinkFaults fwd_faults = LinkFaults{},
                    LinkFaults rev_faults = LinkFaults{},
                    std::uint64_t seed = 42)
      : fwd(sim, "a->b", fwd_faults, seed),
        rev(sim, "b->a", rev_faults, seed + 1),
        client(sim, "client", seed + 2),
        server(sim, "server", seed + 3) {
    client.attach(rev, fwd);
    server.attach(fwd, rev);
    server.serve("echo", [](const std::string& request, std::string& response) {
      response = request;
      return true;
    });
  }
};

TEST(RpcTest, CallValidation) {
  RpcWorld w;
  CallOptions bad;
  bad.deadline = 0;
  EXPECT_THROW(w.client.call("echo", "x", bad, nullptr), std::invalid_argument);
  CallOptions no_attempts;
  no_attempts.retry.max_attempts = 0;
  EXPECT_THROW(w.client.call("echo", "x", no_attempts, nullptr),
               std::invalid_argument);
  Simulator sim;
  Endpoint unattached(sim, "lone", 1);
  EXPECT_THROW(unattached.call("echo", "x", CallOptions{}, nullptr),
               std::logic_error);
  EXPECT_THROW(unattached.send_data(Frame{}), std::logic_error);
  EXPECT_THROW(unattached.start_heartbeats(5), std::logic_error);
}

TEST(RpcTest, EchoCompletesFirstAttempt) {
  RpcWorld w;
  std::vector<RpcResult> results;
  w.client.call("echo", "hello", CallOptions{},
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_EQ(results[0].payload, "hello");
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(results[0].elapsed, 2u);  // 1 tick each way
  EXPECT_EQ(w.client.counters().ok, 1u);
  EXPECT_EQ(w.server.counters().served, 1u);
  EXPECT_EQ(w.client.outstanding(), 0u);
}

TEST(RpcTest, DropAllExhaustsTheAttemptBudget) {
  LinkFaults lossy;
  lossy.drop = 1.0;
  RpcWorld w(lossy);
  CallOptions options;
  options.deadline = 5;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 2;
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kExhausted);
  EXPECT_EQ(results[0].attempts, 3u);
  EXPECT_EQ(w.client.counters().attempt_failures, 3u);
  EXPECT_EQ(w.client.counters().exhausted, 1u);
  EXPECT_EQ(w.server.counters().served, 0u);
}

TEST(RpcTest, RetryRecoversOnceThePartitionHeals) {
  RpcWorld w;
  w.fwd.partition();
  CallOptions options;
  options.deadline = 5;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = 10;  // retry fires at t=15
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.schedule_at(10, [link = &w.fwd] { link->heal(); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(results[0].payload, "x");
  EXPECT_EQ(w.client.counters().attempt_failures, 1u);
}

TEST(RpcTest, TimeBudgetFailsTheCallBeforeTheNextAttempt) {
  RpcWorld w;
  w.fwd.partition();
  CallOptions options;
  options.deadline = 5;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff = 10;
  options.retry.time_budget = 12;  // t=5 failure + 10 backoff > 12
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kDeadlineExceeded);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_EQ(w.client.counters().deadline_exceeded, 1u);
}

TEST(RpcTest, UnknownMethodIsAnAppErrorAndRetriesUntilExhausted) {
  RpcWorld w;
  CallOptions options;
  options.deadline = 5;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 2;
  std::vector<RpcResult> results;
  w.client.call("no-such-method", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kExhausted);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(w.server.counters().served, 2u);
  EXPECT_EQ(w.client.counters().attempt_failures, 2u);
}

TEST(RpcTest, DeadlineFiringDuringBackoffDoesNotDoubleFailTheAttempt) {
  // Regression: an app-error response fails the attempt early but used to
  // leave its deadline timer armed.  With the retry backoff longer than the
  // remaining deadline, the timer fired mid-backoff, saw the attempt
  // counter unchanged, and failed the same attempt a second time —
  // double-counting breaker evidence and burning an extra attempt slot.
  // The failure now cancels the deadline.
  RpcWorld w;
  CallOptions options;
  options.deadline = 10;                   // timer armed for t=10
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 20;      // app error at t=2, retry at t=22
  std::vector<RpcResult> results;
  w.client.call("no-such-method", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kExhausted);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(w.server.counters().served, 2u);
  // Exactly one failure per attempt.  The buggy path recorded three: the
  // t=2 app error, the t=10 deadline re-fail of the same attempt, and the
  // second attempt's app error.
  EXPECT_EQ(w.client.counters().attempt_failures, 2u);
}

TEST(RpcTest, ReplyCancelsTheAttemptDeadline) {
  RpcWorld w;
  CallOptions options;
  options.deadline = 1000;
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_until(2);  // request and reply, one tick each way
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_TRUE(w.sim.idle());  // no deadline left to fire at t=1000
  EXPECT_EQ(w.sim.executed(), 2u);
}

TEST(RpcTest, LateSuccessDuringTheBackoffCancelsTheRetry) {
  // The attempt times out at t=5 and backs off until t=55; its reply,
  // 20 ticks round trip, lands at t=20 and completes the call.
  LinkFaults slow;
  slow.latency = 10;
  RpcWorld w(slow, slow);
  CallOptions options;
  options.deadline = 5;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 50;
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_until(20);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_TRUE(w.sim.idle());  // the retry at t=55 is gone
  w.sim.run_all();
  EXPECT_EQ(w.server.counters().served, 1u);
}

TEST(RpcTest, ResponsesForSupersededAttemptsAreStale) {
  // RTT (20) far exceeds the per-attempt deadline (5): both attempts time
  // out before their responses come back, and both responses must be
  // ignored — honoring either would complete a finished call.
  LinkFaults slow;
  slow.latency = 10;
  RpcWorld w(slow, slow);
  CallOptions options;
  options.deadline = 5;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 1;
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kExhausted);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(w.server.counters().served, 2u);
  EXPECT_EQ(w.client.counters().stale_responses, 2u);
  EXPECT_EQ(w.client.counters().ok, 0u);
}

TEST(RpcTest, DuplicatedResponseCompletesOnceAndCountsStale) {
  LinkFaults dup;
  dup.duplicate = 1.0;
  RpcWorld w(LinkFaults{}, dup);
  std::vector<RpcResult> results;
  w.client.call("echo", "x", CallOptions{},
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);  // callback fired exactly once
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_EQ(w.client.counters().ok, 1u);
  EXPECT_EQ(w.client.counters().stale_responses, 1u);
}

TEST(RpcTest, OpenBreakerFailsFastWithoutTouchingTheWire) {
  RpcWorld w;
  CircuitBreaker::Params params;
  params.cooldown = 1000;
  CircuitBreaker breaker(w.sim, "to-server", params);
  for (int i = 0; i < 4; ++i) breaker.record(false);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  CallOptions options;
  options.breaker = &breaker;
  std::vector<RpcResult> results;
  w.client.call("echo", "x", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kCircuitOpen);
  EXPECT_EQ(results[0].attempts, 0u);
  EXPECT_EQ(w.fwd.counters().sent, 0u);  // nothing reached the wire
  EXPECT_EQ(w.client.counters().circuit_open, 1u);
  EXPECT_EQ(breaker.rejected(), 1u);
}

TEST(RpcTest, RepeatedTimeoutsOpenTheBreaker) {
  RpcWorld w;
  w.fwd.partition();
  CircuitBreaker::Params params;
  params.cooldown = 1000;
  CircuitBreaker breaker(w.sim, "to-server", params);
  CallOptions options;
  options.deadline = 5;
  options.retry = RetryPolicy::none();
  options.breaker = &breaker;

  std::vector<RpcStatus> statuses;
  for (int i = 0; i < 5; ++i) {
    w.client.call("echo", "x", options,
                  [&](const RpcResult& r) { statuses.push_back(r.status); });
    w.sim.run_all();
  }
  ASSERT_EQ(statuses.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(statuses[i], RpcStatus::kExhausted);
  }
  // The fourth timeout crossed the threshold; the fifth call never sends.
  EXPECT_EQ(statuses[4], RpcStatus::kCircuitOpen);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_EQ(w.fwd.counters().sent, 4u);
}

#if !defined(AFT_OBS_DISABLED)
TEST(RpcTest, BreakerRejectionsStayOutOfTheLatencyQuantiles) {
  // Regression: finish() used to observe kCircuitOpen completions under
  // net.rpc.latency.fail and net.rpc.attempts_per_call.  Rejections take
  // zero ticks and zero attempts, so a burst of them dragged the failure
  // quantiles (and the attempts histogram) toward zero exactly when the
  // breaker was doing its job.  They now land in their own stat.
  aft::obs::MetricsRegistry metrics;
  const aft::obs::ScopedObs scope(nullptr, &metrics);

  RpcWorld w;
  w.fwd.partition();
  CircuitBreaker::Params params;
  params.cooldown = 1000;
  CircuitBreaker breaker(w.sim, "to-server", params);
  CallOptions options;
  options.deadline = 5;
  options.retry = RetryPolicy::none();
  options.breaker = &breaker;

  // Four timeouts open the breaker; the next three calls are rejections.
  for (int i = 0; i < 7; ++i) {
    w.client.call("echo", "x", options, nullptr);
    w.sim.run_all();
  }
  EXPECT_EQ(w.client.counters().exhausted, 4u);
  EXPECT_EQ(w.client.counters().circuit_open, 3u);

  const aft::obs::Stat* fail = metrics.find_stat("net.rpc.latency.fail");
  const aft::obs::Stat* attempts =
      metrics.find_stat("net.rpc.attempts_per_call");
  const aft::obs::Stat* rejected =
      metrics.find_stat("net.rpc.latency.rejected");
  ASSERT_NE(fail, nullptr);
  ASSERT_NE(attempts, nullptr);
  ASSERT_NE(rejected, nullptr);
  // Only the four genuine failures feed the fail/attempts distributions...
  EXPECT_EQ(fail->count(), 4u);
  EXPECT_EQ(attempts->count(), 4u);
  // ...so their minima reflect real calls (5-tick deadline, 1 attempt), not
  // the 0-tick/0-attempt rejections that used to pollute them.
  EXPECT_GE(fail->min(), 5.0);
  EXPECT_GE(attempts->min(), 1.0);
  // The rejections are still accounted for — under their own name.
  EXPECT_EQ(rejected->count(), 3u);
}
#endif  // !defined(AFT_OBS_DISABLED)

// --- Async serving + admission pushback ----------------------------------------

TEST(AsyncServeTest, ResponderCompletesTheCallAfterAQueuedDelay) {
  RpcWorld w;
  std::vector<Endpoint::Responder> parked;
  w.server.serve_async("work", [&parked](const std::string& request,
                                         Endpoint::Responder responder) {
    EXPECT_EQ(request, "job");
    parked.push_back(responder);
  });

  std::vector<RpcResult> results;
  CallOptions options;
  options.deadline = 100;
  w.client.call("work", "job", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_until(10);
  // The server holds the responder; the client is still waiting.
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(w.client.outstanding(), 1u);
  EXPECT_EQ(w.server.counters().served, 1u);

  parked[0].respond("done");
  w.sim.run_until(20);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_EQ(results[0].payload, "done");
  EXPECT_GE(results[0].elapsed, 10u);  // the parked wait is part of the call
  EXPECT_EQ(w.client.outstanding(), 0u);
}

TEST(AsyncServeTest, RejectIsADistinctImmediateOutcomeNotATimeout) {
  RpcWorld w;
  w.server.serve_async("work", [](const std::string&,
                                  Endpoint::Responder responder) {
    responder.reject();
  });

  std::vector<RpcResult> results;
  CallOptions options;
  options.deadline = 500;
  options.retry.max_attempts = 3;  // pushback must NOT be retried
  w.client.call("work", "job", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kRejected);
  EXPECT_EQ(results[0].attempts, 1u);
  EXPECT_LT(results[0].elapsed, 10u);  // one RTT, nothing like the deadline
  EXPECT_EQ(w.client.counters().rejected, 1u);
  EXPECT_EQ(w.client.counters().exhausted, 0u);
  EXPECT_EQ(w.client.counters().deadline_exceeded, 0u);
  EXPECT_EQ(w.server.counters().served, 1u);
}

TEST(AsyncServeTest, AsyncFailIsAnAppErrorAndRetries) {
  RpcWorld w;
  std::uint64_t requests = 0;
  w.server.serve_async("work", [&requests](const std::string&,
                                           Endpoint::Responder responder) {
    // First attempt fails (an app error, retried); the retry succeeds.
    if (++requests == 1) {
      responder.fail();
    } else {
      responder.respond("second-time");
    }
  });

  std::vector<RpcResult> results;
  CallOptions options;
  options.deadline = 200;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 4;
  w.client.call("work", "job", options,
                [&](const RpcResult& r) { results.push_back(r); });
  w.sim.run_all();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RpcStatus::kOk);
  EXPECT_EQ(results[0].payload, "second-time");
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(requests, 2u);
}

#if !defined(AFT_OBS_DISABLED)
TEST(AsyncServeTest, RejectionsLandInTheRejectedQuantileStream) {
  // Metric-routing regression (mirrors the breaker one): server pushback
  // must never pollute the ok-latency quantiles the SLO plane consumes.
  aft::obs::MetricsRegistry reg;
  aft::obs::ScopedObs scope(nullptr, &reg);
  RpcWorld w;
  bool shed = true;
  w.server.serve_async("work", [&shed](const std::string&,
                                       Endpoint::Responder responder) {
    if (shed) {
      responder.reject();
    } else {
      responder.respond("ok");
    }
  });
  w.client.call("work", "a", CallOptions{}, nullptr);
  w.sim.run_all();
  shed = false;
  w.client.call("work", "b", CallOptions{}, nullptr);
  w.sim.run_all();

  const auto* rejected = reg.find_stat("net.rpc.latency.rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->count(), 1u);
  const auto* ok = reg.find_stat("net.rpc.latency.ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->count(), 1u);
}
#endif

// --- BusBridge -----------------------------------------------------------------

/// Two nodes, each with a bus, an endpoint, and a bridge, joined by a link
/// pair.  Bridges are constructed last so they can take the data plane.
struct BridgeWorld {
  Simulator sim;
  aft::arch::EventBus bus_a;
  aft::arch::EventBus bus_b;
  Link a2b;
  Link b2a;
  Endpoint ep_a;
  Endpoint ep_b;
  BusBridge bridge_a;
  BusBridge bridge_b;

  explicit BridgeWorld(LinkFaults faults = LinkFaults{})
      : a2b(sim, "a->b", faults, 21),
        b2a(sim, "b->a", faults, 22),
        ep_a(sim, "node-a", 23),
        ep_b(sim, "node-b", 24),
        bridge_a(bus_a, ep_a, "A"),
        bridge_b(bus_b, ep_b, "B") {
    ep_a.attach(b2a, a2b);
    ep_b.attach(a2b, b2a);
  }
};

TEST(BridgeTest, ForwardsATopicToTheRemoteBus) {
  BridgeWorld w;
  w.bridge_a.forward_topic("detect.clash");
  std::vector<aft::arch::Message> remote;
  w.bus_b.subscribe("detect.clash",
                    [&](const aft::arch::Message& m) { remote.push_back(m); });
  w.bus_a.publish({"detect.clash", "detector-7", "threshold crossed"});
  w.sim.run_all();
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_EQ(remote[0].topic, "detect.clash");
  EXPECT_EQ(remote[0].source, "detector-7");
  EXPECT_EQ(remote[0].payload, "threshold crossed");
  EXPECT_EQ(w.bridge_a.forwarded(), 1u);
  EXPECT_EQ(w.bridge_b.republished(), 1u);
}

TEST(BridgeTest, BidirectionalBridgesDoNotEcho) {
  BridgeWorld w;
  w.bridge_a.forward_topic("detect.clash");
  w.bridge_b.forward_topic("detect.clash");
  std::size_t seen_a = 0;
  std::size_t seen_b = 0;
  w.bus_a.subscribe("detect.clash", [&](const aft::arch::Message&) { ++seen_a; });
  w.bus_b.subscribe("detect.clash", [&](const aft::arch::Message&) { ++seen_b; });
  w.bus_a.publish({"detect.clash", "detector-7", "once"});
  w.sim.run_all();
  // One local delivery, one remote delivery, no ping-pong.
  EXPECT_EQ(seen_a, 1u);
  EXPECT_EQ(seen_b, 1u);
  EXPECT_EQ(w.bridge_a.forwarded(), 1u);
  EXPECT_EQ(w.bridge_b.forwarded(), 0u);  // the republish is not re-forwarded
  EXPECT_EQ(w.bridge_b.republished(), 1u);
  EXPECT_EQ(w.a2b.counters().sent, 1u);
  EXPECT_EQ(w.b2a.counters().sent, 0u);
}

TEST(BridgeTest, StopUnsubscribesAllTopics) {
  BridgeWorld w;
  w.bridge_a.forward_topic("t1");
  w.bridge_a.forward_topic("t2");
  w.bridge_a.stop();
  w.bus_a.publish({"t1", "s", "x"});
  w.bus_a.publish({"t2", "s", "y"});
  w.sim.run_all();
  EXPECT_EQ(w.bridge_a.forwarded(), 0u);
  EXPECT_EQ(w.a2b.counters().sent, 0u);
}

// --- Membership ----------------------------------------------------------------

TEST(MembershipTest, SilenceTakesAMemberDownAndReinstateBringsItBack) {
  Simulator sim;
  Membership::Params params;
  params.deadline = 10;
  Membership membership(sim, params);
  std::vector<std::pair<Membership::MemberId, bool>> changes;
  membership.on_change(
      [&](Membership::MemberId m, bool up) { changes.emplace_back(m, up); });

  EXPECT_FALSE(membership.up(0));  // not tracked yet
  EXPECT_THROW(membership.beat(0), std::invalid_argument);
  EXPECT_THROW(membership.reinstate(0), std::out_of_range);
  const Membership::MemberId b = membership.track("b");
  EXPECT_EQ(b, 0u);
  EXPECT_TRUE(membership.up(b));
  EXPECT_EQ(membership.size(), 1u);

  // No beats at all: misses at t=10,20,30,40 push the score to 4 > 3.
  sim.run_until(60);
  EXPECT_FALSE(membership.up(b));
  EXPECT_EQ(membership.downs(), 1u);
  EXPECT_EQ(membership.up_count(), 0u);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0], std::pair(b, false));

  // Unit replacement: the cleared evidence must notify back to "up" —
  // this rides on FaultDiscriminator::reset firing its handlers.
  membership.reinstate(b);
  EXPECT_TRUE(membership.up(b));
  EXPECT_EQ(membership.ups(), 1u);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[1], std::pair(b, true));
}

TEST(MembershipTest, HeartbeatsOverTheWireKeepAMemberUpThroughAPartition) {
  Simulator sim;
  Link c2s(sim, "client->server", LinkFaults{}, 31);
  Link s2c(sim, "server->client", LinkFaults{}, 32);
  Endpoint client(sim, "client", 33);
  Endpoint server(sim, "server", 34);
  client.attach(s2c, c2s);
  server.attach(c2s, s2c);

  Membership::Params params;
  params.deadline = 10;
  Membership membership(sim, params);
  // The code that wires the endpoint holds the member id: a beat is
  // credited without looking the frame's origin up.
  const Membership::MemberId member = membership.track("client");
  server.on_heartbeat([&](const std::string&) { membership.beat(member); });
  client.start_heartbeats(4);

  sim.run_until(100);
  EXPECT_TRUE(membership.up(member));
  EXPECT_EQ(membership.downs(), 0u);
  EXPECT_GT(server.heartbeats_received(), 20u);

  // A partition silences the beats; consecutive misses take the member down.
  c2s.partition();
  sim.run_until(200);
  EXPECT_FALSE(membership.up(member));
  EXPECT_EQ(membership.downs(), 1u);

  // Heal + administrative reinstate: beats resume and the member stays up.
  c2s.heal();
  membership.reinstate(member);
  EXPECT_TRUE(membership.up(member));
  sim.run_until(300);
  EXPECT_TRUE(membership.up(member));
  EXPECT_EQ(membership.downs(), 1u);  // no further flaps
  EXPECT_EQ(membership.ups(), 1u);
}

TEST(MembershipTest, StoppedHeartbeatsNoLongerArrive) {
  Simulator sim;
  Link c2s(sim, "client->server", LinkFaults{}, 35);
  Link s2c(sim, "server->client", LinkFaults{}, 36);
  Endpoint client(sim, "client", 37);
  Endpoint server(sim, "server", 38);
  client.attach(s2c, c2s);
  server.attach(c2s, s2c);
  client.start_heartbeats(5);
  sim.run_until(50);
  const std::uint64_t before = server.heartbeats_received();
  EXPECT_GT(before, 0u);
  client.stop_heartbeats();
  sim.run_all();
  // At most the already in-flight beat arrives after the stop.
  EXPECT_LE(server.heartbeats_received(), before + 1);
}

TEST(MembershipTest, RestartedHeartbeatsRunOneChain) {
  Simulator sim;
  Link c2s(sim, "client->server", LinkFaults{}, 35);
  Link s2c(sim, "server->client", LinkFaults{}, 36);
  Endpoint client(sim, "client", 37);
  Endpoint server(sim, "server", 38);
  client.attach(s2c, c2s);
  server.attach(c2s, s2c);
  client.start_heartbeats(5);  // beats at t=0, and one pending for t=5
  sim.run_until(2);
  client.start_heartbeats(5);  // restart: beats at t=2, 7, 12, ..., 52
  sim.run_until(52);
  client.stop_heartbeats();
  sim.run_all();
  EXPECT_EQ(server.heartbeats_received(), 12u);  // not 22: one chain ran
  // Ticks at t=7..52 and 12 deliveries; start_heartbeats sends its first
  // beat itself, and the tick pending for t=5 never dispatched.
  EXPECT_EQ(sim.executed(), 10u + 12u);
}

TEST(MembershipTest, OnMissSurfacesRawMonitorEvidenceWithConsecutiveCounts) {
  Simulator sim;
  Membership::Params params;
  params.deadline = 10;
  Membership membership(sim, params);
  std::vector<std::pair<Membership::MemberId, std::uint64_t>> misses;
  membership.on_miss([&](Membership::MemberId member, std::uint64_t consecutive) {
    misses.emplace_back(member, consecutive);
  });
  // b is the second member, so the hook must pass its own id (1), not 0.
  membership.track("a");
  const Membership::MemberId b = membership.track("b");
  // No beats from b: windows at t=10,20,30 each miss, counting up.
  sim.schedule_at(5, [&] { membership.beat(0); });
  sim.schedule_at(15, [&] { membership.beat(0); });
  sim.schedule_at(25, [&] { membership.beat(0); });
  sim.run_until(35);
  ASSERT_EQ(misses.size(), 3u);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    EXPECT_EQ(misses[i].first, b);
    EXPECT_EQ(misses[i].second, i + 1);
  }
  // The miss stream is below the judgment layer: all three misses fired
  // even though the alpha-count verdict has not flipped the member yet.
  EXPECT_TRUE(membership.up(b));
  // Once the evidence does cross the threshold the stream keeps counting.
  sim.run_until(60);
  EXPECT_FALSE(membership.up(b));
  std::erase_if(misses, [&](const auto& miss) { return miss.first != b; });
  EXPECT_GE(misses.size(), 5u);
  EXPECT_EQ(misses.back().second, misses.size());  // still consecutive
}

#if !defined(AFT_OBS_DISABLED)
TEST(MembershipTest, DownEvidenceIsReQueriedFreshOnEverySecondDownTransition) {
  // Pin: the evidence hook runs once per down transition, never cached —
  // the second outage's member-down record must join to the *second*
  // outage's physical evidence.
  aft::obs::TraceSink sink;
  aft::obs::ScopedObs scope(&sink, nullptr);
  Simulator sim;
  Membership::Params params;
  params.deadline = 10;
  Membership membership(sim, params);
  std::vector<Membership::MemberId> queries;
  membership.set_down_evidence([&queries](Membership::MemberId member) {
    queries.push_back(member);
    return aft::obs::kNoEvent;
  });
  const Membership::MemberId b = membership.track("b");

  sim.run_until(60);  // first outage
  EXPECT_FALSE(membership.up(b));
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0], b);

  membership.reinstate(b);
  EXPECT_TRUE(membership.up(b));
  EXPECT_EQ(queries.size(), 1u);  // up transitions never consult it

  sim.run_until(160);  // second outage: a fresh query, not a cached id
  EXPECT_FALSE(membership.up(b));
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[1], b);
  EXPECT_EQ(membership.downs(), 2u);
}

TEST(MembershipTest, ThrowingChangeHandlerLeavesTheCauseAsItWas) {
  // The member-up/-down record is the current cause only while the change
  // handlers run.  A handler that throws must hand the caller back its own
  // cause — on the down path too, where the record is emitted under the
  // evidence hook's cause.
  aft::obs::TraceSink sink;
  aft::obs::ScopedObs scope(&sink, nullptr);
  Simulator sim;
  Membership::Params params;
  params.deadline = 10;
  Membership membership(sim, params);
  const aft::obs::EventId evidence = sink.emit("net.link", "drop");
  membership.set_down_evidence([evidence](Membership::MemberId) { return evidence; });
  membership.on_change([](Membership::MemberId, bool) {
    throw std::runtime_error("handler failed");
  });
  const Membership::MemberId b = membership.track("b");

  // Down, inside a monitor dispatch: the kernel installed the cause that
  // was current when the check was scheduled (none).
  EXPECT_THROW(sim.run_until(60), std::runtime_error);
  EXPECT_FALSE(membership.up(b));
  EXPECT_EQ(sink.cause(), aft::obs::kNoEvent);

  // Up, called directly under an ambient cause.
  const aft::obs::EventId ambient = sink.emit("test", "ambient");
  sink.set_cause(ambient);
  EXPECT_THROW(membership.reinstate(b), std::runtime_error);
  EXPECT_TRUE(membership.up(b));
  EXPECT_EQ(sink.cause(), ambient);
}
#endif

}  // namespace
