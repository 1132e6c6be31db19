// Tests for the detection substrate: the Alpha-count filter ([20],[21]),
// the per-channel fault discriminator, and the watchdog/watched-task pair
// of the paper's Fig. 4.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "detect/alpha_count.hpp"
#include "detect/discriminator.hpp"
#include "detect/watchdog.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace aft::detect;
using aft::sim::Simulator;

// --- AlphaCount ----------------------------------------------------------------

TEST(AlphaCountTest, ParameterValidation) {
  EXPECT_THROW(AlphaCount(AlphaCount::Params{.decay = 0.0, .threshold = 3.0}),
               std::invalid_argument);
  EXPECT_THROW(AlphaCount(AlphaCount::Params{.decay = 1.0, .threshold = 3.0}),
               std::invalid_argument);
  EXPECT_THROW(AlphaCount(AlphaCount::Params{.decay = 0.5, .threshold = 0.0}),
               std::invalid_argument);
}

TEST(AlphaCountTest, DefaultsAreTheFig4Parameters) {
  AlphaCount ac;
  EXPECT_DOUBLE_EQ(ac.params().threshold, 3.0);
  EXPECT_DOUBLE_EQ(ac.params().decay, 0.7);
}

TEST(AlphaCountTest, NoErrorsNoEvidence) {
  AlphaCount ac;
  for (int i = 0; i < 100; ++i) ac.record(false);
  EXPECT_EQ(ac.judgment(), FaultJudgment::kNoEvidence);
  EXPECT_DOUBLE_EQ(ac.score(), 0.0);
}

TEST(AlphaCountTest, ScoreArithmetic) {
  AlphaCount ac(AlphaCount::Params{.decay = 0.5, .threshold = 10.0});
  EXPECT_DOUBLE_EQ(ac.record(true), 1.0);
  EXPECT_DOUBLE_EQ(ac.record(true), 2.0);
  EXPECT_DOUBLE_EQ(ac.record(false), 1.0);   // * 0.5
  EXPECT_DOUBLE_EQ(ac.record(false), 0.5);
  EXPECT_DOUBLE_EQ(ac.record(true), 1.5);
  EXPECT_EQ(ac.rounds(), 5u);
  EXPECT_EQ(ac.errors(), 3u);
}

TEST(AlphaCountTest, IsolatedTransientsStayBelowThreshold) {
  // One error every 20 rounds with K=0.7 decays far below T=3.
  AlphaCount ac;
  for (int i = 0; i < 2000; ++i) ac.record(i % 20 == 0);
  EXPECT_EQ(ac.judgment(), FaultJudgment::kTransient);
  EXPECT_FALSE(ac.threshold_crossed());
}

TEST(AlphaCountTest, PermanentFaultCrossesAtDeterministicRound) {
  // Errors every round: alpha = n, crosses T=3.0 strictly after round 4
  // (alpha=4 > 3).
  AlphaCount ac;
  ac.record(true);  // 1
  ac.record(true);  // 2
  ac.record(true);  // 3 (not > 3)
  EXPECT_EQ(ac.judgment(), FaultJudgment::kTransient);
  ac.record(true);  // 4 > 3 -> crossed
  EXPECT_EQ(ac.judgment(), FaultJudgment::kPermanentOrIntermittent);
}

TEST(AlphaCountTest, IntermittentBurstsAlsoCross) {
  // Bursty errors (3 on, 2 off) accumulate past the threshold even though
  // no single burst does: the intermittent signature.
  AlphaCount ac;
  bool crossed = false;
  for (int i = 0; i < 50 && !crossed; ++i) {
    crossed = ac.record(i % 5 < 3) > 3.0 || ac.threshold_crossed();
  }
  EXPECT_TRUE(ac.threshold_crossed());
}

TEST(AlphaCountTest, VerdictLatchesAcrossQuietPeriods) {
  AlphaCount ac;
  for (int i = 0; i < 5; ++i) ac.record(true);
  ASSERT_TRUE(ac.threshold_crossed());
  for (int i = 0; i < 1000; ++i) ac.record(false);
  EXPECT_EQ(ac.judgment(), FaultJudgment::kPermanentOrIntermittent);
  EXPECT_LT(ac.score(), 1e-6);  // score decayed, verdict did not
}

TEST(AlphaCountTest, ResetClearsVerdictAndScore) {
  AlphaCount ac;
  for (int i = 0; i < 5; ++i) ac.record(true);
  ac.reset();
  // reset() returns the detector to its birth state.  It used to retain
  // errors_/rounds_, so judgment() reported kTransient forever after a
  // reset even though no new evidence had been observed.
  EXPECT_EQ(ac.judgment(), FaultJudgment::kNoEvidence);
  EXPECT_EQ(ac.errors(), 0u);
  EXPECT_EQ(ac.rounds(), 0u);
  EXPECT_DOUBLE_EQ(ac.score(), 0.0);
  EXPECT_FALSE(ac.threshold_crossed());
}

TEST(AlphaCountTest, PostResetJudgmentTracksOnlyNewEvidence) {
  AlphaCount ac;
  for (int i = 0; i < 50; ++i) ac.record(true);
  EXPECT_TRUE(ac.threshold_crossed());
  ac.reset();
  // A single clean round after reset must read as a healthy component,
  // not as a transient echo of pre-reset history.
  ac.record(false);
  EXPECT_EQ(ac.judgment(), FaultJudgment::kNoEvidence);
  EXPECT_EQ(ac.rounds(), 1u);
}

/// Discrimination property over a parameter sweep: a permanent fault must
/// always cross; a sparse transient must never cross.
struct AlphaSweep {
  double decay;
  double threshold;
};

class AlphaCountSweepTest : public ::testing::TestWithParam<AlphaSweep> {};

TEST_P(AlphaCountSweepTest, DiscriminatesPermanentFromSparseTransient) {
  const auto [decay, threshold] = GetParam();
  AlphaCount permanent(AlphaCount::Params{decay, threshold});
  AlphaCount transient(AlphaCount::Params{decay, threshold});
  for (int i = 0; i < 500; ++i) {
    permanent.record(true);
    transient.record(i % 50 == 0);  // sparse: decays fully between errors
  }
  EXPECT_TRUE(permanent.threshold_crossed());
  EXPECT_FALSE(transient.threshold_crossed());
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, AlphaCountSweepTest,
    ::testing::Values(AlphaSweep{0.3, 2.0}, AlphaSweep{0.5, 3.0},
                      AlphaSweep{0.7, 3.0}, AlphaSweep{0.7, 5.0},
                      AlphaSweep{0.9, 6.0}),
    [](const ::testing::TestParamInfo<AlphaSweep>& param_info) {
      return "K" + std::to_string(static_cast<int>(param_info.param.decay * 10)) +
             "_T" + std::to_string(static_cast<int>(param_info.param.threshold));
    });

// --- FaultDiscriminator -----------------------------------------------------------

TEST(DiscriminatorTest, PerChannelIsolation) {
  FaultDiscriminator d;
  const ChannelId healthy = d.add("healthy");
  const ChannelId broken = d.add("broken");
  const ChannelId never = d.add("never-seen");
  EXPECT_EQ(healthy, 0u);
  EXPECT_EQ(broken, 1u);
  EXPECT_EQ(d.name(broken), "broken");
  for (int i = 0; i < 10; ++i) {
    d.record(healthy, false);
    d.record(broken, true);
  }
  EXPECT_EQ(d.judgment(healthy), FaultJudgment::kNoEvidence);
  EXPECT_EQ(d.judgment(broken), FaultJudgment::kPermanentOrIntermittent);
  EXPECT_EQ(d.judgment(never), FaultJudgment::kNoEvidence);
  EXPECT_EQ(d.channel_count(), 3u);
  EXPECT_THROW(d.record(3, true), std::out_of_range);  // never minted
  EXPECT_THROW(d.reset(3), std::out_of_range);
}

TEST(DiscriminatorTest, VerdictChangeHandlerFiresOnTransitionsOnly) {
  FaultDiscriminator d;
  const ChannelId c = d.add("c");
  std::vector<std::pair<ChannelId, FaultJudgment>> events;
  d.on_verdict_change(
      [&](ChannelId ch, FaultJudgment j) { events.emplace_back(ch, j); });
  for (int i = 0; i < 10; ++i) d.record(c, true);
  // Two transitions: NoEvidence->Transient (first error),
  // Transient->PermanentOrIntermittent (threshold crossing).
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].second, FaultJudgment::kTransient);
  EXPECT_EQ(events[1].second, FaultJudgment::kPermanentOrIntermittent);
}

TEST(DiscriminatorTest, ResetChannelAfterReplacement) {
  FaultDiscriminator d;
  const ChannelId c = d.add("c");
  for (int i = 0; i < 10; ++i) d.record(c, true);
  ASSERT_EQ(d.judgment(c), FaultJudgment::kPermanentOrIntermittent);
  d.reset(c);
  EXPECT_NE(d.judgment(c), FaultJudgment::kPermanentOrIntermittent);
  EXPECT_DOUBLE_EQ(d.score(c), 0.0);
}

// A registered channel stays invisible until its first judgment round: a
// reset before then emits no detect.alpha/reset record and fires no
// verdict (Membership::reinstate() and cluster repair() before the first
// heartbeat window rely on it).  Once recorded, a reset is visible.
TEST(DiscriminatorTest, ResetBeforeTheFirstRoundIsInvisible) {
  aft::obs::TraceSink sink;
  aft::obs::ScopedObs scope(&sink, nullptr);
  FaultDiscriminator d;
  const ChannelId c = d.add("c");
  int verdicts = 0;
  d.on_verdict_change([&](ChannelId, FaultJudgment) { ++verdicts; });
  EXPECT_FALSE(d.reset(c));
  EXPECT_EQ(d.judgment(c), FaultJudgment::kNoEvidence);
  EXPECT_EQ(verdicts, 0);
  EXPECT_EQ(sink.size(), 0u);

  d.record(c, false);
  EXPECT_FALSE(d.reset(c));  // visible now, but the verdict did not move
  EXPECT_EQ(verdicts, 0);
#if !defined(AFT_OBS_DISABLED)
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_NE(sink.jsonl().find(R"("component":"detect.alpha","event":"reset")"),
            std::string::npos);
#endif
}

// Regression: reset_channel() used to update the stored judgment silently,
// so the kPermanentOrIntermittent -> kNoEvidence transition of a unit
// replacement never reached the verdict-change subscribers — a switchboard
// that suspended the channel was never told to re-arm it.
TEST(DiscriminatorTest, ResetChannelNotifiesSubscribersOfTheTransition) {
  FaultDiscriminator d;
  d.add("other");
  const ChannelId c = d.add("c");
  std::vector<std::pair<ChannelId, FaultJudgment>> events;
  d.on_verdict_change(
      [&](ChannelId ch, FaultJudgment j) { events.emplace_back(ch, j); });
  for (int i = 0; i < 10; ++i) d.record(c, true);
  ASSERT_EQ(events.size(), 2u);  // NoEvidence->Transient->Permanent

  d.reset(c);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].first, c);
  EXPECT_EQ(events[2].second, FaultJudgment::kNoEvidence);

  // A reset that does not move the verdict stays silent: the channel is
  // already at kNoEvidence, so a second reset is not a transition.
  d.reset(c);
  EXPECT_EQ(events.size(), 3u);
}

// Regression: the notification loop was a range-for over the handler
// vector, so a handler subscribing another handler re-entrantly could
// reallocate the vector mid-iteration and invalidate the loop.  The index
// loop delivers to the handlers present when the transition fired; late
// subscribers hear about subsequent transitions only.
TEST(DiscriminatorTest, HandlerMaySubscribeReentrantlyDuringNotification) {
  FaultDiscriminator d;
  const ChannelId c = d.add("c");
  int outer_calls = 0;
  int inner_calls = 0;
  d.on_verdict_change([&](ChannelId, FaultJudgment) {
    ++outer_calls;
    // Force reallocation pressure: several re-entrant subscriptions.
    for (int i = 0; i < 4; ++i) {
      d.on_verdict_change([&](ChannelId, FaultJudgment) { ++inner_calls; });
    }
  });
  d.record(c, true);  // NoEvidence -> Transient
  EXPECT_EQ(outer_calls, 1);
  EXPECT_EQ(inner_calls, 0);  // not invoked for the transition that added them

  for (int i = 0; i < 9; ++i) d.record(c, true);  // -> Permanent
  EXPECT_EQ(outer_calls, 2);
  EXPECT_EQ(inner_calls, 4);  // the first four subscribers hear the second
}

// --- Watchdog / WatchedTask ---------------------------------------------------------

TEST(WatchdogTest, ZeroDeadlineRejected) {
  Simulator sim;
  EXPECT_THROW(Watchdog(sim, 0, [](aft::sim::SimTime) {}), std::invalid_argument);
}

TEST(WatchdogTest, HealthyTaskNeverFiresTheDog) {
  Simulator sim;
  Watchdog dog(sim, 10, [](aft::sim::SimTime) {});
  WatchedTask task(sim, dog, 5);  // kicks twice per window
  dog.start();
  task.start();
  sim.run_until(1000);
  EXPECT_EQ(dog.firings(), 0u);
  EXPECT_EQ(dog.windows(), 100u);
  EXPECT_EQ(task.kicks_delivered(), 200u);
}

TEST(WatchdogTest, PermanentFaultFiresEveryWindow) {
  Simulator sim;
  std::vector<aft::sim::SimTime> firings;
  Watchdog dog(sim, 10, [&](aft::sim::SimTime t) { firings.push_back(t); });
  WatchedTask task(sim, dog, 5);
  dog.start();
  task.start();
  sim.run_until(100);
  EXPECT_TRUE(firings.empty());
  task.inject_permanent_fault();
  sim.run_until(200);
  // Every window after the injection misses: ~10 firings.
  EXPECT_GE(firings.size(), 9u);
  EXPECT_TRUE(task.faulty());
}

TEST(WatchdogTest, TransientFaultFiresBriefly) {
  Simulator sim;
  Watchdog dog(sim, 10, [](aft::sim::SimTime) {});
  WatchedTask task(sim, dog, 10);
  dog.start();
  task.start();
  task.inject_transient_fault(3);  // miss 3 kicks then recover
  sim.run_until(500);
  EXPECT_GE(dog.firings(), 1u);
  EXPECT_LE(dog.firings(), 4u);
  EXPECT_FALSE(task.faulty());
}

TEST(WatchdogTest, RepairStopsTheFirings) {
  Simulator sim;
  Watchdog dog(sim, 10, [](aft::sim::SimTime) {});
  WatchedTask task(sim, dog, 5);
  dog.start();
  task.start();
  task.inject_permanent_fault();
  sim.run_until(100);
  const auto before = dog.firings();
  ASSERT_GT(before, 0u);
  task.repair();
  sim.run_until(300);
  EXPECT_LE(dog.firings(), before + 1);  // at most one boundary window
}

TEST(WatchdogTest, StopDisarms) {
  Simulator sim;
  Watchdog dog(sim, 10, [](aft::sim::SimTime) {});
  WatchedTask task(sim, dog, 5);
  dog.start();
  task.start();
  task.inject_permanent_fault();
  sim.run_until(50);
  dog.stop();
  const auto frozen = dog.firings();
  sim.run_until(500);
  EXPECT_EQ(dog.firings(), frozen);
}

TEST(WatchdogTest, RestartRunsASingleWindowChain) {
  // A start() after stop() used to leave the earlier check pending beside
  // the fresh chain, after which every silent window was counted twice.
  // stop() cancels the pending check: a stop/start cycle fires exactly one
  // check per deadline, and the stale one never dispatches.
  Simulator sim;
  Watchdog dog(sim, 10, [](aft::sim::SimTime) {});
  dog.start();  // check pending at t=10
  sim.run_until(5);
  dog.stop();
  EXPECT_TRUE(sim.idle());
  dog.start();  // fresh chain: checks at 15, 25, 35, ...
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(105);  // 10 windows, no kicks
  EXPECT_EQ(dog.windows(), 10u);
  EXPECT_EQ(dog.firings(), 10u);
  EXPECT_EQ(sim.executed(), 10u);
}

TEST(WatchdogTest, RestartFromTheFireHandlerKeepsOneChain) {
  Simulator sim;
  Watchdog* self = nullptr;
  Watchdog dog(sim, 10, [&self](aft::sim::SimTime) {
    self->stop();
    self->start();
  });
  self = &dog;
  dog.start();
  sim.run_until(105);  // every window fires and restarts: t=10..100
  EXPECT_EQ(dog.windows(), 10u);
  EXPECT_EQ(dog.firings(), 10u);
  EXPECT_EQ(sim.executed(), 10u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(WatchdogTest, WatchedTaskRestartKicksOncePerPeriod) {
  Simulator sim;
  Watchdog dog(sim, 10, [](aft::sim::SimTime) {});
  WatchedTask task(sim, dog, 5);
  dog.start();
  task.start();  // tick pending at t=5
  sim.run_until(2);
  task.stop();
  EXPECT_EQ(sim.pending(), 1u);  // the dog's check alone
  task.start();  // fresh chain: ticks at 7, 12, 17, ...
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_until(52);  // 10 periods
  EXPECT_EQ(task.kicks_delivered(), 10u);
  EXPECT_EQ(dog.firings(), 0u);  // healthy task: the dog stays quiet
  EXPECT_EQ(sim.executed(), 10u + 5u);  // ticks and the dog's windows only
}

// --- The Fig. 4 scenario end-to-end --------------------------------------------------

TEST(Fig4ScenarioTest, WatchdogFeedsAlphaCountUntilPermanentLabel) {
  // "A permanent design fault is repeatedly injected in the watched task.
  //  As a consequence, the watchdog fires and an alpha-count variable is
  //  updated.  The value of that variable increases until it overcomes a
  //  threshold (3.0) and correspondingly the fault is labeled as
  //  'permanent or intermittent'."
  Simulator sim;
  AlphaCount alpha;  // K=0.7, T=3.0
  Watchdog dog(sim, 10, [&](aft::sim::SimTime) { alpha.record(true); });
  WatchedTask task(sim, dog, 5);
  dog.start();
  task.start();

  sim.run_until(200);  // healthy phase: no firings, no score
  EXPECT_DOUBLE_EQ(alpha.score(), 0.0);

  task.inject_permanent_fault();
  // The kick delivered at t=200 still satisfies the t=210 window; the four
  // windows after that (220..250) all miss, driving alpha to 4 > 3.
  sim.run_until(200 + 60);
  EXPECT_EQ(alpha.judgment(), FaultJudgment::kPermanentOrIntermittent);
  EXPECT_GT(alpha.score(), 3.0);
}

}  // namespace
