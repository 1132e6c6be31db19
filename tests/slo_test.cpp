// Tests for the SLO plane: sim-time-windowed Timelines (per-window
// quantiles, deterministic merge), SloTracker burn-rate transitions with
// hysteresis, the switchboard bridge (obs.slo/breach raises redundancy),
// and the "timelines"/"quantiles" JSON export shape.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/event_bus.hpp"
#include "autonomic/switchboard.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "vote/voting_farm.hpp"

namespace {

using aft::obs::MetricsRegistry;
using aft::obs::SloPolicy;
using aft::obs::SloTracker;
using aft::obs::Timeline;
using aft::obs::TimelineKind;

// --- Timeline -----------------------------------------------------------------

TEST(TimelineTest, SamplesLandInTheirWindows) {
  Timeline tl(10, TimelineKind::kStat);
  tl.observe(0, 5);
  tl.observe(9, 7);
  tl.observe(10, 100);  // window 1
  tl.observe(25, 1);    // window 2

  const std::vector<Timeline::WindowView> w = tl.snapshot();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].index, 0u);
  EXPECT_EQ(w[0].count, 2u);
  EXPECT_EQ(w[0].min, 5u);
  EXPECT_EQ(w[0].max, 7u);
  EXPECT_EQ(w[1].index, 1u);
  EXPECT_EQ(w[1].count, 1u);
  EXPECT_EQ(w[1].p50, 100u);
  EXPECT_EQ(w[2].index, 2u);
  EXPECT_EQ(w[2].count, 1u);
}

TEST(TimelineTest, PerWindowQuantilesAreExactForSmallValues) {
  Timeline tl(100, TimelineKind::kStat);
  // Values < 32 occupy exact buckets, so per-window quantiles are exact.
  for (std::uint64_t i = 1; i <= 10; ++i) tl.observe(5, i);
  tl.observe(150, 31);  // roll window 0 into the finalized store

  const std::vector<Timeline::WindowView> w = tl.snapshot();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].p50, 5u);
  EXPECT_EQ(w[0].p99, 10u);
  EXPECT_EQ(w[0].p999, 10u);
  EXPECT_EQ(w[0].sum, 55u);
}

TEST(TimelineTest, MergeMatchesSingleStreamSnapshot) {
  // Interleave one stream across two timelines job-style; the merged
  // snapshot must equal the single-stream snapshot window for window.
  Timeline whole(10, TimelineKind::kStat);
  Timeline part_a(10, TimelineKind::kStat);
  Timeline part_b(10, TimelineKind::kStat);
  for (std::uint64_t t = 0; t < 100; t += 3) {
    const std::uint64_t v = (t * 7) % 60;
    whole.observe(t, v);
    ((t / 3) % 2 == 0 ? part_a : part_b).observe(t, v);
  }
  part_a.merge(part_b);

  const auto lhs = whole.snapshot();
  const auto rhs = part_a.snapshot();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].index, rhs[i].index) << i;
    EXPECT_EQ(lhs[i].count, rhs[i].count) << i;
    EXPECT_EQ(lhs[i].sum, rhs[i].sum) << i;
    EXPECT_EQ(lhs[i].min, rhs[i].min) << i;
    EXPECT_EQ(lhs[i].max, rhs[i].max) << i;
    EXPECT_EQ(lhs[i].p50, rhs[i].p50) << i;
    EXPECT_EQ(lhs[i].p99, rhs[i].p99) << i;
    EXPECT_EQ(lhs[i].p999, rhs[i].p999) << i;
  }
}

TEST(TimelineTest, MergeIsOrderInsensitiveOnDisjointWindows) {
  Timeline early(10, TimelineKind::kStat);
  early.observe(5, 1);
  Timeline late(10, TimelineKind::kStat);
  late.observe(95, 9);

  Timeline ab = early;
  ab.merge(late);
  Timeline ba = late;
  ba.merge(early);
  const auto a = ab.snapshot();
  const auto b = ba.snapshot();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].p50, b[i].p50);
  }
}

TEST(TimelineTest, CounterKindAccumulatesDeltasPerWindow) {
  Timeline tl(10, TimelineKind::kCounter);
  tl.observe(0, 1);
  tl.observe(3, 2);
  tl.observe(17, 5);
  const auto w = tl.snapshot();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].sum, 3u);
  EXPECT_EQ(w[1].sum, 5u);
}

TEST(TimelineTest, GaugeKindKeepsLastValuePerWindow) {
  Timeline tl(10, TimelineKind::kGauge);
  tl.observe(0, 3);
  tl.observe(4, 5);
  tl.observe(12, 9);
  const auto w = tl.snapshot();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].last, 5u);
  EXPECT_EQ(w[1].last, 9u);
}

// --- MetricsRegistry timeline routing + JSON ----------------------------------

TEST(MetricsTimelineTest, RegistryRoutesIntoRegisteredTimelines) {
  MetricsRegistry reg;
  reg.timeline("lat", 10);
  reg.timeline_counter("calls", 10);
  reg.timeline_gauge("level", 10);

  aft::obs::set_obs_time(2);
  reg.observe("lat", 4.0);
  reg.add("calls", 2);
  reg.set_gauge("level", 3.0);
  aft::obs::set_obs_time(15);
  reg.observe("lat", 8.0);
  reg.add("calls", 1);
  reg.set_gauge("level", 5.0);

  const Timeline* lat = reg.find_timeline("lat");
  ASSERT_NE(lat, nullptr);
  const auto lw = lat->snapshot();
  ASSERT_EQ(lw.size(), 2u);
  EXPECT_EQ(lw[0].p50, 4u);
  EXPECT_EQ(lw[1].p50, 8u);

  const Timeline* calls = reg.find_timeline("calls");
  ASSERT_NE(calls, nullptr);
  const auto cw = calls->snapshot();
  ASSERT_EQ(cw.size(), 2u);
  EXPECT_EQ(cw[0].sum, 2u);
  EXPECT_EQ(cw[1].sum, 1u);

  const std::string json = reg.json();
  EXPECT_NE(json.find(R"("timelines":{)"), std::string::npos);
  EXPECT_NE(json.find(R"("calls":{"kind":"counter","window":10)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("level":{"kind":"gauge","window":10)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("lat":{"kind":"stat","window":10)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("quantiles":{"lat":{"count":2)"), std::string::npos);
}

TEST(MetricsTimelineTest, RegistrationIsIdempotentFirstWindowWins) {
  MetricsRegistry reg;
  Timeline& first = reg.timeline("lat", 10);
  Timeline& again = reg.timeline("lat", 999);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.window_ticks(), 10u);
}

TEST(MetricsTimelineTest, MergePreservesTimelinesAcrossRegistries) {
  MetricsRegistry a;
  a.timeline("lat", 10);
  aft::obs::set_obs_time(1);
  a.observe("lat", 2.0);

  MetricsRegistry b;
  b.timeline("lat", 10);
  aft::obs::set_obs_time(12);
  b.observe("lat", 6.0);

  a.merge(b);
  const Timeline* lat = a.find_timeline("lat");
  ASSERT_NE(lat, nullptr);
  const auto w = lat->snapshot();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].p50, 2u);
  EXPECT_EQ(w[1].p50, 6u);

  // Post-merge samples must keep flowing into the (re-linked) timeline.
  aft::obs::set_obs_time(25);
  a.observe("lat", 9.0);
  ASSERT_EQ(a.find_timeline("lat")->snapshot().size(), 3u);
}

TEST(MetricsTimelineTest, MergedIntegerSectionsEqualSingleRegistryBytes) {
  // The campaign property in miniature: split a stream over two
  // registries, merge in job order, compare against one registry that saw
  // everything.  The integer-backed sections (counters, quantiles,
  // timelines) must match byte for byte; the Welford mean/stddev may
  // differ in the last ulp (parallel Welford is associativity-noisy),
  // which is fine — campaign byte-identity only requires that the *job
  // partition* is fixed, and it is, for every AFT_THREADS value
  // (campaign_test pins that end to end).
  const auto feed = [](MetricsRegistry& reg, std::uint64_t t0,
                       std::uint64_t t1) {
    for (std::uint64_t t = t0; t < t1; t += 2) {
      aft::obs::set_obs_time(t);
      reg.observe("lat", static_cast<double>((t * 13) % 90));
      reg.add("calls");
      reg.set_gauge("level", static_cast<double>(t % 7));
    }
  };
  MetricsRegistry whole;
  whole.timeline("lat", 25);
  whole.timeline_counter("calls", 25);
  whole.timeline_gauge("level", 25);
  feed(whole, 0, 200);

  MetricsRegistry j0;
  j0.timeline("lat", 25);
  j0.timeline_counter("calls", 25);
  j0.timeline_gauge("level", 25);
  feed(j0, 0, 100);
  MetricsRegistry j1;
  j1.timeline("lat", 25);
  j1.timeline_counter("calls", 25);
  j1.timeline_gauge("level", 25);
  feed(j1, 100, 200);
  j0.merge(j1);

  const auto integer_sections = [](const std::string& json) {
    const std::size_t at = json.find(R"("quantiles")");
    EXPECT_NE(at, std::string::npos);
    return json.substr(at);
  };
  EXPECT_EQ(integer_sections(whole.json()), integer_sections(j0.json()));
  EXPECT_EQ(whole.counter("calls"), j0.counter("calls"));
  EXPECT_DOUBLE_EQ(whole.gauge("level"), j0.gauge("level"));
  ASSERT_NE(j0.find_stat("lat"), nullptr);
  EXPECT_EQ(j0.find_stat("lat")->count(), 100u);
}

// --- SloTracker ---------------------------------------------------------------

SloPolicy p99_under(std::uint64_t threshold, std::uint64_t window) {
  SloPolicy p;
  p.budget_permille = 10;  // p99
  p.threshold_ticks = threshold;
  p.window_ticks = window;
  return p;
}

TEST(SloTrackerTest, RejectsDegeneratePolicies) {
  SloPolicy no_window;
  no_window.window_ticks = 0;
  EXPECT_THROW(SloTracker("x", no_window), std::invalid_argument);
  SloPolicy no_budget;
  no_budget.budget_permille = 0;
  EXPECT_THROW(SloTracker("x", no_budget), std::invalid_argument);
}

TEST(SloTrackerTest, BreachesWhenWindowBurnExceedsAlert) {
  SloTracker slo("lat", p99_under(10, 100));
  std::vector<bool> published;
  slo.set_publisher([&](bool breach) { published.push_back(breach); });

  // Window 0: every sample over threshold — burn far above 1000 permille.
  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  EXPECT_FALSE(slo.breached());  // verdicts land at window boundaries
  slo.record(100, 5);            // crossing into window 1 evaluates window 0
  EXPECT_TRUE(slo.breached());
  EXPECT_EQ(slo.breaches(), 1u);
  ASSERT_EQ(published.size(), 1u);
  EXPECT_TRUE(published[0]);
}

TEST(SloTrackerTest, RecoversWithHysteresis) {
  SloPolicy policy = p99_under(10, 100);
  policy.burn_clear_permille = 500;
  SloTracker slo("lat", policy);

  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  slo.record(100, 5);  // breach on window 0
  ASSERT_TRUE(slo.breached());

  // Window 1 is all-fast: burn 0 < clear — recover at the next boundary.
  for (std::uint64_t i = 1; i < 10; ++i) slo.record(100 + i * 10, 5);
  slo.record(200, 5);
  EXPECT_FALSE(slo.breached());
  EXPECT_EQ(slo.breaches(), 1u);
  EXPECT_EQ(slo.recoveries(), 1u);
}

TEST(SloTrackerTest, BurnWithinBudgetNeverBreaches) {
  // 1 of 200 samples over threshold = 5 permille over, budget 10 permille:
  // burn 500 < alert 1000.
  SloTracker slo("lat", p99_under(10, 1000));
  for (std::uint64_t i = 0; i < 200; ++i) {
    slo.record(i, i == 0 ? 50 : 5);
  }
  slo.flush(1000);
  EXPECT_FALSE(slo.breached());
  EXPECT_EQ(slo.breaches(), 0u);
}

TEST(SloTrackerTest, SilentStreamRecoversAcrossEmptyWindows) {
  SloTracker slo("lat", p99_under(10, 100));
  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  slo.record(100, 50);  // breach; window 1 starts burning too
  ASSERT_TRUE(slo.breached());
  // Long silence, then one fast sample far in the future: the gap windows
  // saw no traffic, burn nothing, and clear the breach.
  slo.record(5000, 5);
  EXPECT_FALSE(slo.breached());
  EXPECT_EQ(slo.recoveries(), 1u);
}

TEST(SloTrackerTest, GapAfterABurningWindowPublishesNoSpuriousPair) {
  // Regression: a hot window followed by an idle gap that straddles window
  // boundaries.  At traffic resumption the batch closes the hot window
  // (breach) AND collapses the idle windows (recover) in one step; the net
  // state never changed while anyone could observe it, so publishing the
  // breach+recover pair here — arbitrarily after the overload ended —
  // would raise redundancy against history.  Pre-fix, the pair leaked.
  SloTracker slo("lat", p99_under(10, 100));
  std::vector<bool> published;
  slo.set_publisher([&](bool breach) { published.push_back(breach); });

  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);  // hot
  slo.record(5000, 5);  // idle gap [100, 5000), then traffic resumes

  EXPECT_FALSE(slo.breached());
  EXPECT_TRUE(published.empty());
  EXPECT_EQ(slo.breaches(), 0u);
  EXPECT_EQ(slo.recoveries(), 0u);
}

TEST(SloTrackerTest, SingleBoundaryGapStillPublishesALegitimateBreach) {
  // The counterpart guard: when the next sample lands in the immediately
  // following window there IS no idle stretch — the hot verdict is the
  // tracker's live state and must publish.
  SloTracker slo("lat", p99_under(10, 100));
  std::vector<bool> published;
  slo.set_publisher([&](bool breach) { published.push_back(breach); });

  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  slo.record(105, 5);  // next window over: evaluate window 0 now

  EXPECT_TRUE(slo.breached());
  ASSERT_EQ(published.size(), 1u);
  EXPECT_TRUE(published[0]);
}

TEST(SloTrackerTest, BreachedThenFlushedTrackerRecoversWhenTrafficResumes) {
  // Regression: breach via flush(), then an idle gap, then traffic again.
  // Pre-fix the reopen leg skipped the gap collapse entirely, so a
  // breached-then-flushed tracker stayed breached across an arbitrarily
  // long silence — the switchboard never saw the recover.
  SloTracker slo("lat", p99_under(10, 100));
  std::vector<bool> published;
  slo.set_publisher([&](bool breach) { published.push_back(breach); });

  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  slo.flush(95);  // evaluates the hot window: breach
  ASSERT_TRUE(slo.breached());
  ASSERT_EQ(published.size(), 1u);
  EXPECT_TRUE(published[0]);

  slo.record(5000, 5);  // idle windows in between recover the tracker
  EXPECT_FALSE(slo.breached());
  ASSERT_EQ(published.size(), 2u);
  EXPECT_FALSE(published[1]);
  EXPECT_EQ(slo.recoveries(), 1u);

  // The tracker is fully live again: a fresh hot window re-breaches at the
  // next boundary crossing (5199 is still in the immediately next window —
  // no idle stretch, so the verdict publishes).
  for (std::uint64_t i = 0; i < 10; ++i) slo.record(5000 + i * 10, 50);
  slo.record(5199, 5);
  EXPECT_TRUE(slo.breached());
  EXPECT_EQ(slo.breaches(), 2u);
}

TEST(SloTrackerTest, FlushEvaluatesTheOpenWindow) {
  SloTracker slo("lat", p99_under(10, 1000));
  for (std::uint64_t i = 0; i < 5; ++i) slo.record(i, 99);
  EXPECT_FALSE(slo.breached());
  slo.flush(5);
  EXPECT_TRUE(slo.breached());
  EXPECT_EQ(slo.breaches(), 1u);
}

#if !defined(AFT_OBS_DISABLED)
TEST(SloTrackerTest, TransitionsEmitTraceEventsAndMetrics) {
  aft::obs::TraceSink sink;
  MetricsRegistry reg;
  aft::obs::ScopedObs scope(&sink, &reg);

  SloTracker slo("rpc", p99_under(10, 100));
  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  slo.record(100, 5);
  slo.record(200, 5);  // evaluates the all-fast window 1: recover

  const std::string jsonl = sink.jsonl();
  EXPECT_NE(jsonl.find(R"("component":"obs.slo","event":"breach")"),
            std::string::npos);
  EXPECT_NE(jsonl.find(R"("component":"obs.slo","event":"recover")"),
            std::string::npos);
  EXPECT_NE(jsonl.find(R"("slo":"rpc")"), std::string::npos);
  EXPECT_NE(jsonl.find(R"("burn_permille":)"), std::string::npos);
  EXPECT_EQ(reg.counter("obs.slo.breaches"), 1u);
  EXPECT_EQ(reg.counter("obs.slo.recoveries"), 1u);
}
#endif

// --- Switchboard bridge -------------------------------------------------------

TEST(SwitchboardSloTest, BreachRaisesRedundancyWithoutValueFaults) {
  aft::vote::VotingFarm farm(3, [](aft::vote::Ballot input, std::size_t) {
    return input + 1;  // always correct: no dissent ever
  });
  aft::autonomic::ReflectiveSwitchboard::Policy policy;
  policy.min_replicas = 3;
  policy.max_replicas = 9;
  policy.step = 2;
  aft::autonomic::ReflectiveSwitchboard board(farm, policy, /*key=*/0x1);

  aft::arch::EventBus bus;
  board.bind_slo(bus);

  SloTracker slo("rpc", p99_under(10, 100));
  slo.set_publisher([&bus](bool breach) {
    aft::arch::Message msg;
    msg.topic = breach ? "obs.slo/breach" : "obs.slo/recover";
    msg.source = "obs.slo";
    bus.publish(msg);
  });

  ASSERT_EQ(farm.replicas(), 3u);
  for (std::uint64_t i = 0; i < 10; ++i) slo.record(i * 10, 50);
  slo.record(100, 5);  // breach -> publish -> board raises

  EXPECT_EQ(farm.replicas(), 5u);
  EXPECT_EQ(board.slo_raises(), 1u);

  // A second breach event would raise again up to the cap; a recover does
  // not shrink by itself (the usual consecutive-high rule does that).
  aft::arch::Message recover;
  recover.topic = "obs.slo/recover";
  recover.source = "obs.slo";
  bus.publish(recover);
  EXPECT_EQ(farm.replicas(), 5u);
}

TEST(SwitchboardSloTest, RaisesSaturateAtMaxReplicas) {
  aft::vote::VotingFarm farm(3, [](aft::vote::Ballot input, std::size_t) {
    return input;
  });
  aft::autonomic::ReflectiveSwitchboard::Policy policy;
  policy.min_replicas = 3;
  policy.max_replicas = 5;
  policy.step = 2;
  aft::autonomic::ReflectiveSwitchboard board(farm, policy, /*key=*/0x2);
  aft::arch::EventBus bus;
  board.bind_slo(bus);

  aft::arch::Message breach;
  breach.topic = "obs.slo/breach";
  breach.source = "obs.slo";
  bus.publish(breach);
  EXPECT_EQ(farm.replicas(), 5u);
  bus.publish(breach);
  EXPECT_EQ(farm.replicas(), 5u);  // saturated: no further raise
  EXPECT_EQ(board.slo_raises(), 1u);
}

}  // namespace
