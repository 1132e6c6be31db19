// Tests for the multi-channel HeartbeatMonitor and its integration with
// the per-channel fault discriminator.
#include <gtest/gtest.h>

#include "detect/heartbeat.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace aft::detect;
using aft::sim::SimTime;
using aft::sim::Simulator;

struct Fixture {
  Simulator sim;
  FaultDiscriminator discriminator;
  HeartbeatMonitor monitor{sim, discriminator};
};

/// Schedules a beat for `channel` every `period` ticks until `until`.
void drive_beats(Fixture& f, ChannelId channel, SimTime period, SimTime until) {
  for (SimTime t = period; t <= until; t += period) {
    f.sim.schedule_at(t, [&f, channel] {
      if (f.monitor.watching(channel)) f.monitor.beat(channel);
    });
  }
}

TEST(HeartbeatTest, RegistrationRules) {
  Fixture f;
  EXPECT_THROW(f.monitor.watch("c", 0), std::invalid_argument);
  EXPECT_EQ(f.discriminator.channel_count(), 0u);  // nothing registered
  const ChannelId c = f.monitor.watch("c", 10);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(f.discriminator.name(c), "c");
  EXPECT_TRUE(f.monitor.watching(c));
  EXPECT_THROW(f.monitor.watch(c, 10), std::invalid_argument);  // still watched
  EXPECT_THROW(f.monitor.beat(c + 1), std::invalid_argument);
  // Ids are minted per watch(name): a second channel may share the name.
  EXPECT_EQ(f.monitor.watch("c", 10), 1u);
  EXPECT_EQ(f.discriminator.channel_count(), 2u);
}

TEST(HeartbeatTest, HealthyChannelsNeverMiss) {
  Fixture f;
  const ChannelId a = f.monitor.watch("a", 10);
  const ChannelId b = f.monitor.watch("b", 7);
  drive_beats(f, a, 5, 500);
  drive_beats(f, b, 3, 500);
  f.sim.run_until(500);
  EXPECT_EQ(f.monitor.total_misses(), 0u);
  EXPECT_EQ(f.discriminator.judgment(a), FaultJudgment::kNoEvidence);
  EXPECT_EQ(f.discriminator.judgment(b), FaultJudgment::kNoEvidence);
}

TEST(HeartbeatTest, SilentChannelIsJudgedPermanent) {
  Fixture f;
  const ChannelId dead = f.monitor.watch("dead", 10);
  const ChannelId alive = f.monitor.watch("alive", 10);
  drive_beats(f, alive, 5, 200);
  f.sim.run_until(200);
  EXPECT_GE(f.monitor.consecutive_misses(dead), 19u);
  EXPECT_EQ(f.discriminator.judgment(dead), FaultJudgment::kPermanentOrIntermittent);
  EXPECT_EQ(f.discriminator.judgment(alive), FaultJudgment::kNoEvidence);
}

TEST(HeartbeatTest, MissHandlerReceivesConsecutiveCount) {
  Fixture f;
  std::vector<std::uint64_t> misses;
  f.monitor.set_miss_handler([&](ChannelId ch, std::uint64_t n) {
    EXPECT_EQ(f.discriminator.name(ch), "c");
    misses.push_back(n);
  });
  f.monitor.watch("c", 10);
  f.sim.run_until(35);  // windows at 10,20,30 all miss
  EXPECT_EQ(misses, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(HeartbeatTest, RecoveryResetsConsecutiveMisses) {
  Fixture f;
  const ChannelId c = f.monitor.watch("c", 10);
  f.sim.run_until(25);  // 2 misses
  EXPECT_EQ(f.monitor.consecutive_misses(c), 2u);
  f.monitor.beat(c);
  f.sim.run_until(35);  // window at 30 satisfied
  EXPECT_EQ(f.monitor.consecutive_misses(c), 0u);
  EXPECT_EQ(f.monitor.total_misses(), 2u);  // history retained
}

TEST(HeartbeatTest, UnwatchStopsChecks) {
  Fixture f;
  const ChannelId c = f.monitor.watch("c", 10);
  f.sim.run_until(25);
  const auto before = f.monitor.total_misses();
  f.monitor.unwatch(c);
  EXPECT_FALSE(f.monitor.watching(c));
  f.sim.run_until(200);
  EXPECT_EQ(f.monitor.total_misses(), before);
}

TEST(HeartbeatTest, TransientGlitchStaysTransient) {
  Fixture f;
  const ChannelId c = f.monitor.watch("c", 10);
  // Healthy beats except a 2-window gap.
  for (SimTime t = 5; t <= 400; t += 5) {
    if (t > 100 && t <= 120) continue;  // the glitch
    f.sim.schedule_at(t, [&f, c] { f.monitor.beat(c); });
  }
  f.sim.run_until(400);
  EXPECT_GE(f.monitor.total_misses(), 1u);
  EXPECT_EQ(f.discriminator.judgment(c), FaultJudgment::kTransient);
}

TEST(HeartbeatTest, RewatchRunsASingleCheckChain) {
  // A watch() after unwatch() used to leave the old registration's check
  // pending beside the fresh chain, double-counting every silent window.
  // unwatch() cancels that check: a fully silent channel over n windows
  // scores exactly n misses, and the stale check never even dispatches.
  Fixture f;
  const ChannelId c = f.monitor.watch("c", 10);
  f.sim.run_until(5);  // check for t=10 is pending
  f.monitor.unwatch(c);
  EXPECT_TRUE(f.sim.idle());
  f.monitor.watch(c, 10);  // re-watch before the old check would fire
  EXPECT_EQ(f.sim.pending(), 1u);
  f.sim.run_until(105);    // 10 windows of the fresh chain (t=15..105)
  EXPECT_EQ(f.monitor.total_misses(), 10u);
  EXPECT_EQ(f.monitor.consecutive_misses(c), 10u);
  EXPECT_EQ(f.sim.executed(), 10u);
}

TEST(HeartbeatTest, RewatchFromTheMissHandlerEndsTheRunningChain) {
  // The restart comes from inside the check that is running: the check
  // must not re-arm behind the fresh chain its handler started.
  Fixture f;
  const ChannelId c = f.monitor.watch("c", 10);
  f.monitor.set_miss_handler([&f](ChannelId channel, std::uint64_t) {
    f.monitor.unwatch(channel);
    f.monitor.watch(channel, 10);
  });
  f.sim.run_until(105);  // silent: a miss, and a restart, at t=10..100
  EXPECT_EQ(f.monitor.total_misses(), 10u);
  EXPECT_EQ(f.sim.executed(), 10u);
  EXPECT_EQ(f.sim.pending(), 1u);
  EXPECT_TRUE(f.monitor.watching(c));
}

TEST(HeartbeatTest, IndependentDeadlinesPerChannel) {
  Fixture f;
  const ChannelId fast = f.monitor.watch("fast", 5);
  const ChannelId slow = f.monitor.watch("slow", 50);
  // Beat both every 20 ticks: satisfies "slow", starves "fast".
  drive_beats(f, fast, 20, 300);
  drive_beats(f, slow, 20, 300);
  f.sim.run_until(300);
  EXPECT_GT(f.monitor.total_misses(), 0u);
  EXPECT_EQ(f.discriminator.judgment(slow), FaultJudgment::kNoEvidence);
  EXPECT_EQ(f.discriminator.judgment(fast), FaultJudgment::kPermanentOrIntermittent);
}

}  // namespace
