// Tests for the deterministic parallel campaign runner: result ordering,
// bit-identical output for every thread count, AFT_THREADS resolution, and
// exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/campaign.hpp"
#include "util/rng.hpp"

namespace {

using aft::util::campaign_threads;
using aft::util::parallel_for_index;
using aft::util::run_campaigns;

/// RAII guard restoring AFT_THREADS after a test mutates it.
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    if (const char* v = std::getenv("AFT_THREADS")) saved_ = v;
  }
  ~ThreadsEnvGuard() {
    if (saved_.empty()) {
      ::unsetenv("AFT_THREADS");
    } else {
      ::setenv("AFT_THREADS", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

TEST(CampaignTest, EveryIndexRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for_index(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CampaignTest, ResultsArriveInJobOrder) {
  const auto out =
      run_campaigns(100, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(CampaignTest, BitIdenticalForEveryThreadCount) {
  // Each job runs its own seeded RNG stream — the campaign shape every
  // ablation bench uses.  The merged results must not depend on the pool
  // size or on scheduling.
  const auto job = [](std::size_t i) {
    aft::util::Xoshiro256 rng(1000 + i);
    std::uint64_t acc = 0;
    for (int k = 0; k < 5000; ++k) acc ^= rng.next();
    return acc;
  };
  const auto serial = run_campaigns(23, job, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run_campaigns(23, job, threads), serial) << threads << " threads";
  }
}

TEST(CampaignTest, EachWorkerOwnsItsOwnSimulator) {
  const auto job = [](std::size_t i) {
    aft::sim::Simulator sim;
    std::uint64_t fired = 0;
    for (aft::sim::SimTime t = 1; t <= 50; ++t) {
      sim.schedule_at(t * (i + 1), [&fired] { ++fired; });
    }
    sim.run_until(40 * (i + 1));
    return fired;
  };
  const auto serial = run_campaigns(12, job, 1);
  EXPECT_EQ(run_campaigns(12, job, 4), serial);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], 40u);
}

TEST(CampaignTest, ZeroJobsIsANoOp) {
  bool called = false;
  parallel_for_index(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(CampaignTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      parallel_for_index(64, 4,
                         [](std::size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

// Campaign observability capture needs the thread-local install path,
// which -DAFT_OBS=OFF compiles out.
#if !defined(AFT_OBS_DISABLED)

/// One deterministic fake campaign job: emits a couple of trace events and
/// metrics derived from the job index alone.
void obs_job(std::size_t i) {
  aft::obs::TraceSink* sink = aft::obs::trace();
  ASSERT_NE(sink, nullptr);  // capture must install a per-job sink
  aft::obs::set_obs_time(i * 10);
  sink->emit("job", "work", {{"i", i}});
  aft::obs::set_obs_time(i * 10 + 5);
  sink->emit("job", "done", {{"result", i * i}});
  aft::obs::metrics()->add("jobs.completed", 1);
  aft::obs::metrics()->observe("jobs.result", static_cast<double>(i * i));
  aft::obs::metrics()->set_gauge("jobs.last_index", static_cast<double>(i));
}

/// Runs the 16-job fake campaign on `threads` workers and returns the
/// serialized (trace, metrics) pair.
std::pair<std::string, std::string> run_obs_campaign(unsigned threads) {
  aft::obs::TraceSink sink;
  aft::obs::MetricsRegistry registry;
  const aft::obs::ScopedObs scope(&sink, &registry);
  parallel_for_index(16, threads, obs_job);
  return {sink.jsonl(), registry.json()};
}

TEST(CampaignTest, TraceAndMetricsBitIdenticalAcrossThreadCounts) {
  // The acceptance property of the obs layer: per-job sinks merged in
  // job-index order make the serialized trace and metrics byte-identical
  // whether the campaign ran on 1, 3, or 8 workers.
  const auto serial = run_obs_campaign(1);
  EXPECT_FALSE(serial.first.empty());
  for (const unsigned threads : {2u, 3u, 8u}) {
    const auto parallel = run_obs_campaign(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads=" << threads;
  }
  // Sanity on the merged content: every job contributed.
  EXPECT_NE(serial.second.find(R"("jobs.completed":16)"), std::string::npos);
  // Gauge merge is last-writer in job order: job 15.
  EXPECT_NE(serial.second.find(R"("jobs.last_index":15)"), std::string::npos);
}

/// Campaign job that exercises the PR-8 surfaces: per-job timeline
/// registration, clock-driven windowing, and histogram-backed stats —
/// everything the "quantiles" and "timelines" JSON sections export.
void timeline_job(std::size_t i) {
  aft::obs::MetricsRegistry* reg = aft::obs::metrics();
  ASSERT_NE(reg, nullptr);
  reg->timeline("job.latency", /*window_ticks=*/50);
  reg->timeline_counter("job.calls", /*window_ticks=*/50);
  reg->timeline_gauge("job.level", /*window_ticks=*/50);
  for (std::uint64_t t = 0; t < 200; t += 7) {
    aft::obs::set_obs_time(t);
    reg->observe("job.latency", static_cast<double>(1 + (t * (i + 3)) % 400));
    reg->add("job.calls");
    reg->set_gauge("job.level", static_cast<double>((t + i) % 9));
  }
}

std::string run_timeline_campaign(unsigned threads) {
  aft::obs::TraceSink sink;
  aft::obs::MetricsRegistry registry;
  const aft::obs::ScopedObs scope(&sink, &registry);
  parallel_for_index(16, threads, timeline_job);
  return registry.json();
}

TEST(CampaignTest, TimelineAndQuantileJsonBitIdenticalAcrossThreadCounts) {
  // PR-8 acceptance: the quantile and windowed-timeline exports rest on
  // integer bucket counts with associative merges, so the full metrics
  // JSON — timelines included — is byte-identical for any AFT_THREADS.
  const std::string serial = run_timeline_campaign(1);
  EXPECT_NE(serial.find(R"("quantiles":{"job.latency":{"count":)"),
            std::string::npos);
  EXPECT_NE(serial.find(R"("timelines":{)"), std::string::npos);
  EXPECT_NE(serial.find(R"("job.calls":{"kind":"counter","window":50)"),
            std::string::npos);
  EXPECT_NE(serial.find(R"("job.latency":{"kind":"stat","window":50)"),
            std::string::npos);
  for (const unsigned threads : {2u, 3u, 8u}) {
    EXPECT_EQ(run_timeline_campaign(threads), serial) << "threads=" << threads;
  }
}

TEST(CampaignTest, WorkersDoNotTouchTheCallersSink) {
  aft::obs::TraceSink sink;
  aft::obs::MetricsRegistry registry;
  const aft::obs::ScopedObs scope(&sink, &registry);
  parallel_for_index(8, 4, [&sink](std::size_t) {
    // Each job sees its own fresh sink, never the caller's.
    EXPECT_NE(aft::obs::trace(), &sink);
    EXPECT_EQ(aft::obs::trace()->size(), 1u);  // the campaign/job marker
  });
  // 8 jobs x (1 marker + 0 events) merged in.
  EXPECT_EQ(sink.size(), 8u);
}

TEST(CampaignTest, ObsCaptureWritesPartialTraceOnError) {
  aft::obs::TraceSink sink;
  aft::obs::MetricsRegistry registry;
  const aft::obs::ScopedObs scope(&sink, &registry);
  EXPECT_THROW(parallel_for_index(4, 1,
                                  [](std::size_t i) {
                                    aft::obs::metrics()->add("ran", 1);
                                    if (i == 2) throw std::runtime_error("x");
                                  }),
               std::runtime_error);
  // Jobs 0..2 ran (job 2 up to its throw); their metrics were still merged.
  EXPECT_EQ(registry.counter("ran"), 3u);
}

#endif  // !AFT_OBS_DISABLED

TEST(CampaignTest, ThreadCountRespectsEnvVar) {
  const ThreadsEnvGuard guard;
  ::setenv("AFT_THREADS", "3", 1);
  EXPECT_EQ(campaign_threads(), 3u);
  ::setenv("AFT_THREADS", "1", 1);
  EXPECT_EQ(campaign_threads(), 1u);
  // Malformed / non-positive values fall back to the hardware default.
  ::setenv("AFT_THREADS", "0", 1);
  EXPECT_GE(campaign_threads(), 1u);
  ::setenv("AFT_THREADS", "banana", 1);
  EXPECT_GE(campaign_threads(), 1u);
  ::unsetenv("AFT_THREADS");
  EXPECT_GE(campaign_threads(), 1u);
}

TEST(CampaignTest, MalformedThreadCountIsNotTruncatedToItsPrefix) {
  // Regression: atoi-style parsing accepted "3garbage" as 3, silently
  // running campaigns on the wrong pool size.  The strict parse must reject
  // any trailing junk and fall back to the hardware default.  Two different
  // numeric prefixes prove the point on any machine: the hardware default
  // cannot equal both 3 and 5.
  const ThreadsEnvGuard guard;
  ::setenv("AFT_THREADS", "3garbage", 1);
  const unsigned first = campaign_threads();
  ::setenv("AFT_THREADS", "5garbage", 1);
  const unsigned second = campaign_threads();
  EXPECT_EQ(first, second);
  EXPECT_GE(first, 1u);
  // Other malformed shapes take the same fallback.
  ::setenv("AFT_THREADS", "", 1);
  EXPECT_EQ(campaign_threads(), first);
  ::setenv("AFT_THREADS", " 4 ", 1);
  EXPECT_EQ(campaign_threads(), first);
  ::setenv("AFT_THREADS", "0x8", 1);
  EXPECT_EQ(campaign_threads(), first);
  ::setenv("AFT_THREADS", "99999999999999999999", 1);  // out of range
  EXPECT_EQ(campaign_threads(), first);
  // A well-formed value still wins.
  ::setenv("AFT_THREADS", "4", 1);
  EXPECT_EQ(campaign_threads(), 4u);
}

}  // namespace
