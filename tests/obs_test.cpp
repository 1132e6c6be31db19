// Tests for the observability layer: JSONL trace shape, deterministic seq
// assignment, merge order, the sink's encoded record buffer, metrics JSON
// export, and the thread-local install/uninstall discipline the
// instrumentation macros rely on.
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/cli.hpp"
#include "obs_clock_reset.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "trace_analysis.hpp"
#include "trace_reader.hpp"

namespace {

using aft::obs::MetricsRegistry;
using aft::obs::ScopedObs;
using aft::obs::TraceSink;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(TraceSinkTest, EmitsJsonlKeyedByTimeAndSeq) {
  TraceSink sink;
  aft::obs::set_obs_time(7);
  sink.emit("mem.ecc", "corrected", {{"addr", 42u}, {"origin", "read"}});
  aft::obs::set_obs_time(9);
  sink.emit("detect", "latch", {{"score", 3.5}, {"latched", true}});

  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            R"({"t":7,"seq":0,"component":"mem.ecc","event":"corrected","addr":42,"origin":"read"})");
  EXPECT_EQ(lines[1],
            R"({"t":9,"seq":1,"component":"detect","event":"latch","score":3.5,"latched":true})");
}

TEST(TraceSinkTest, EscapesJsonStrings) {
  TraceSink sink;
  sink.emit("c", "e", {{"s", "a\"b\\c\n\t"}});
  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(R"("s":"a\"b\\c\n\t")"), std::string::npos);
}

TEST(TraceSinkTest, FieldKindsRenderAsJsonTypes) {
  TraceSink sink;
  sink.emit("c", "e",
            {{"u", std::uint64_t{18446744073709551615ULL}},
             {"i", std::int64_t{-5}},
             {"f", 0.25},
             {"b", false}});
  const std::string line = lines_of(sink.jsonl()).at(0);
  EXPECT_NE(line.find(R"("u":18446744073709551615)"), std::string::npos);
  EXPECT_NE(line.find(R"("i":-5)"), std::string::npos);
  EXPECT_NE(line.find(R"("f":0.25)"), std::string::npos);
  EXPECT_NE(line.find(R"("b":false)"), std::string::npos);
}

TEST(TraceSinkTest, SeqAssignedAtWriteTimeAcrossAppendedSinks) {
  // The campaign runner merges per-job sinks in job order; seq must come
  // out gapless and increasing in the merged file, independent of how the
  // events were distributed over per-job sinks.
  TraceSink job0;
  aft::obs::set_obs_time(1);
  job0.emit("a", "x");
  TraceSink job1;
  aft::obs::set_obs_time(2);
  job1.emit("b", "y");
  job1.emit("b", "z");

  TraceSink merged;
  merged.append(std::move(job0));
  merged.append(std::move(job1));
  EXPECT_TRUE(job0.empty());  // NOLINT(bugprone-use-after-move): documented

  const auto lines = lines_of(merged.jsonl());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find(R"("seq":0)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("seq":1)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("seq":2)"), std::string::npos);
}

TEST(TraceSinkTest, CapsEventsAndReportsTruncation) {
  TraceSink sink(/*max_events=*/3);
  for (int i = 0; i < 10; ++i) sink.emit("c", "e", {{"i", i}});
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 7u);
  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 4u);  // 3 events + truncation footer
  EXPECT_NE(lines.back().find(R"("event":"truncated")"), std::string::npos);
  EXPECT_NE(lines.back().find(R"("dropped":7)"), std::string::npos);
}

TEST(TraceSinkTest, BinaryHeaderCarriesMagicVersionAndFlags) {
  TraceSink sink;
  sink.emit("c", "e");
  const std::string bin = sink.binary();
  ASSERT_GE(bin.size(), 6u);
  EXPECT_EQ(bin.substr(0, 4), "AFTB");
  EXPECT_EQ(bin[4], static_cast<char>(aft::obs::aftb::kVersion));
  EXPECT_EQ(bin[5], 0);  // flags
}

TEST(TraceSinkTest, BinaryIsCompactOnRepetitiveTraces) {
  // The interned string table plus varint/delta coding is the whole point
  // of the format: a steady-state trace repeats the same components, events
  // and keys thousands of times, and the binary encoding must amortize
  // them to at least 5x below JSONL.
  TraceSink sink;
  for (int i = 0; i < 5000; ++i) {
    aft::obs::set_obs_time(static_cast<std::uint64_t>(i));
    sink.emit("arch.bus", "publish-batch",
              {{"topic", "daemon-7"}, {"count", 256u}, {"subscribers", 5u}});
  }
  const std::string jsonl = sink.jsonl();
  const std::string bin = sink.binary();
  EXPECT_GE(jsonl.size(), 5 * bin.size());
}

TEST(TraceSinkTest, AppendedSinksSerializeIdenticallyToDirectEmission) {
  // Campaign merge must be byte-deterministic: per-job sinks appended in
  // job order serialize exactly like the same events emitted into a single
  // sink — in both formats.  (The jobs interned independently, so append()
  // has to re-intern by content for this to hold.)
  const auto emit_job0 = [](TraceSink& s) {
    aft::obs::set_obs_time(1);
    s.emit("a", "x", {{"k", "v"}});
  };
  const auto emit_job1 = [](TraceSink& s) {
    aft::obs::set_obs_time(2);
    const aft::obs::EventId ev = s.emit("b", "y");
    s.set_cause(ev);
    s.emit("a", "z", {{"k", "w"}});
    s.set_cause(aft::obs::kNoEvent);
  };

  TraceSink direct;
  emit_job0(direct);
  emit_job1(direct);

  TraceSink job0;
  emit_job0(job0);
  TraceSink job1;
  emit_job1(job1);
  TraceSink merged;
  merged.append(std::move(job0));
  merged.append(std::move(job1));

  EXPECT_EQ(merged.jsonl(), direct.jsonl());
  EXPECT_EQ(merged.binary(), direct.binary());
}

// --- The encoded record buffer ---------------------------------------------
//
// The sink keeps its records as AFTB bytes and renders JSONL from them, so
// each test checks that the binary file, decoded by tools/trace_reader,
// says exactly what the sink's JSONL says.

void expect_binary_decodes_to_jsonl(const TraceSink& sink) {
  std::string error;
  const auto from_jsonl = aft::tools::parse_trace_data(sink.jsonl(), error);
  ASSERT_TRUE(from_jsonl.has_value()) << error;
  const auto from_binary = aft::tools::parse_trace_data(sink.binary(), error);
  ASSERT_TRUE(from_binary.has_value()) << error;
  ASSERT_EQ(from_binary->events.size(), from_jsonl->events.size());
  EXPECT_EQ(from_binary->dropped, from_jsonl->dropped);
  for (std::size_t i = 0; i < from_jsonl->events.size(); ++i) {
    ASSERT_EQ(from_jsonl->events[i].seq, i);
    ASSERT_EQ(from_binary->events[i].seq, i);
  }
  const auto diff =
      aft::tools::diff_traces(*from_jsonl, *from_binary, "jsonl", "binary");
  EXPECT_TRUE(diff.identical) << diff.report;
}

TEST(TraceBufferTest, RecordOfAtLeast128BytesTakesAMultiByteLengthPrefix) {
  TraceSink sink;
  aft::obs::set_obs_time(5);
  sink.emit("c", "short", {{"k", 1u}});
  constexpr std::uint64_t kBig = ~std::uint64_t{0};
  sink.emit("c", "long",
            {{"a", kBig}, {"b", kBig}, {"c", kBig}, {"d", kBig}, {"e", kBig},
             {"f", kBig}, {"g", kBig}, {"h", kBig}, {"i", kBig}, {"j", kBig},
             {"k", kBig}, {"l", kBig}});
  aft::obs::set_obs_time(6);
  sink.emit("c", "after", {{"k", 2u}});
  const std::string bin = sink.binary();
  // Header (6) + string table + count + dropped; the long record's body is
  // 12 fields of key, kind and a 10-byte varint, so its prefix is 2 bytes.
  EXPECT_GT(bin.size(), 12u * 12u + 2u);
  expect_binary_decodes_to_jsonl(sink);
  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(R"("l":18446744073709551615})"), std::string::npos);
  EXPECT_EQ(lines[2],
            R"({"t":6,"seq":2,"component":"c","event":"after","k":2})");
}

TEST(TraceBufferTest, RecordsPastTheChunkBoundaryStayWhole) {
  TraceSink sink;
  std::size_t n = 0;
  while (sink.binary().size() < 2 * TraceSink::kChunkBytes + 4096) {
    for (int i = 0; i < 20000; ++i, ++n) {
      aft::obs::set_obs_time(n / 3);
      sink.set_cause(n % 7 == 0 ? aft::obs::kNoEvent : n - 1);
      sink.emit("net.link", "send",
                {{"link", "coord->replica-0"},
                 {"id", std::uint64_t{n} * 0x10001},
                 {"odd", n % 2 == 1}});
    }
  }
  EXPECT_EQ(sink.size(), n);
  expect_binary_decodes_to_jsonl(sink);
  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), n);
  EXPECT_NE(lines.back().find("\"seq\":" + std::to_string(n - 1)),
            std::string::npos);
}

TEST(TraceBufferTest, AppendOfDisjointTablesIntoTheCapKeepsTheLastKeptTime) {
  const auto emit_job0 = [](TraceSink& s) {
    aft::obs::set_obs_time(10);
    const aft::obs::EventId a = s.emit("job0", "start", {{"who", "alpha"}});
    s.set_cause(a);
    aft::obs::set_obs_time(12);
    s.emit("job0", "step", {{"n", 1}});
    s.set_cause(aft::obs::kNoEvent);
  };
  const auto emit_job1 = [](TraceSink& s) {
    aft::obs::set_obs_time(20);
    const aft::obs::EventId b = s.emit("job1", "begin", {{"whom", "beta"}});
    s.set_span(b);
    aft::obs::set_obs_time(25);
    s.emit("job1", "kept", {{"x", 2.5}});
    aft::obs::set_obs_time(30);
    s.emit("job1", "dropped", {{"y", "gamma"}});
    aft::obs::set_obs_time(40);
    s.emit("job1", "dropped", {{"y", "delta"}});
    s.set_span(aft::obs::kNoEvent);
  };

  constexpr std::size_t kCap = 4;
  TraceSink direct(kCap);
  emit_job0(direct);
  emit_job1(direct);

  TraceSink job0;
  emit_job0(job0);
  TraceSink job1;
  emit_job1(job1);
  TraceSink merged(kCap);
  merged.append(std::move(job0));
  merged.append(std::move(job1));

  EXPECT_EQ(merged.size(), kCap);
  EXPECT_EQ(merged.dropped(), 2u);
  EXPECT_TRUE(job1.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(merged.jsonl(), direct.jsonl());
  EXPECT_EQ(merged.binary(), direct.binary());
  expect_binary_decodes_to_jsonl(merged);
  expect_binary_decodes_to_jsonl(direct);
  const auto lines = lines_of(merged.jsonl());
  ASSERT_EQ(lines.size(), kCap + 1);
  EXPECT_EQ(lines[3],
            R"({"t":25,"seq":3,"span":2,"component":"job1","event":"kept","x":2.5})");
  // The footer carries the time of the last kept record, not of a dropped
  // one.
  EXPECT_EQ(lines[4],
            R"({"t":25,"seq":4,"component":"trace","event":"truncated","dropped":2})");
}

TEST(TraceBufferTest, AllFiveFieldKindsRoundTrip) {
  TraceSink sink;
  aft::obs::set_obs_time(~std::uint64_t{0} - 1);  // a time delta near 2^64
  sink.emit("c", "kinds",
            {{"u", std::uint64_t{0}},
             {"u_max", ~std::uint64_t{0}},
             {"i", std::int64_t{-1}},
             {"i_min", std::int64_t{INT64_MIN}},
             {"f", -0.1},
             {"f_nan", std::nan("")},
             {"f_inf", 1.0 / 0.0},
             {"yes", true},
             {"no", false},
             {"s", "quote\" and \x01 control"},
             {"empty", ""}});
  aft::obs::set_obs_time(3);  // and a negative one
  sink.emit("c", "back", {{"s", "quote\" and \x01 control"}});
  expect_binary_decodes_to_jsonl(sink);
  const std::string line = lines_of(sink.jsonl()).at(0);
  EXPECT_NE(line.find(R"("i_min":-9223372036854775808)"), std::string::npos);
  EXPECT_NE(line.find(R"("f":-0.1)"), std::string::npos);
  EXPECT_NE(line.find(R"("f_nan":"nan")"), std::string::npos);
  EXPECT_NE(line.find(R"("f_inf":"inf")"), std::string::npos);
  EXPECT_NE(line.find(R"("yes":true,"no":false)"), std::string::npos);
  EXPECT_NE(line.find(R"("s":"quote\" and \u0001 control","empty":"")"),
            std::string::npos);
}

TEST(MetricsRegistryTest, CountersGaugesAndStats) {
  MetricsRegistry reg;
  reg.add("x", 2);
  reg.add("x", 3);
  reg.set_gauge("level", 1.5);
  reg.observe("lat", 1.0);
  reg.observe("lat", 3.0);

  EXPECT_EQ(reg.counter("x"), 5u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("level"), 1.5);
  ASSERT_NE(reg.find_stat("lat"), nullptr);
  EXPECT_EQ(reg.find_stat("lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(reg.find_stat("lat")->mean(), 2.0);
}

TEST(MetricsRegistryTest, JsonExportIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.add("z.count", 1);
  reg.add("a.count", 2);
  reg.set_gauge("g", 4.0);
  reg.observe("h", 2.0);
  const std::string json = reg.json();
  // Keys sorted: "a.count" appears before "z.count".
  EXPECT_LT(json.find("a.count"), json.find("z.count"));
  EXPECT_NE(json.find(R"("counters":{)"), std::string::npos);
  EXPECT_NE(json.find(R"("gauges":{"g":4)"), std::string::npos);
  EXPECT_NE(json.find(R"("stats":{"h":{"count":1)"), std::string::npos);
}

TEST(MetricsRegistryTest, QuantilesSectionExportsP50P99P999Max) {
  MetricsRegistry reg;
  for (int i = 1; i <= 100; ++i) reg.observe("lat", static_cast<double>(i));
  const std::string json = reg.json();
  // Values 1..100 straddle the exact range (< 32) and the first log
  // majors; the exported quantiles obey the documented <= 1/32 overshoot.
  EXPECT_NE(json.find(R"("quantiles":{"lat":{"count":100,"p50":)"),
            std::string::npos);
  ASSERT_NE(reg.find_stat("lat"), nullptr);
  const aft::obs::Stat& s = *reg.find_stat("lat");
  EXPECT_GE(s.quantile(0.5), 50u);
  EXPECT_LE(s.quantile(0.5), 52u);
  EXPECT_GE(s.quantile(0.99), 99u);
  EXPECT_LE(s.quantile(0.99), 100u);
  EXPECT_EQ(s.quantile(1.0), 100u);
  EXPECT_NE(json.find(R"("max":100)"), std::string::npos);
}

TEST(MetricsRegistryTest, EmptyStatOmitsMinMaxInJson) {
  // A stat that was registered (e.g. a hoisted handle or a timeline
  // registration) but never fed must not export RunningStats' 0.0
  // placeholder as if it were a real extreme.
  MetricsRegistry reg;
  static_cast<void>(reg.stat("registered.but.empty"));
  const std::string json = reg.json();
  EXPECT_NE(
      json.find(R"("registered.but.empty":{"count":0,"mean":0,"stddev":0})"),
      std::string::npos);
  // The quantiles entry likewise carries only the count.
  const std::size_t q = json.find(R"("quantiles")");
  ASSERT_NE(q, std::string::npos);
  EXPECT_NE(json.find(R"("registered.but.empty":{"count":0})", q),
            std::string::npos);
  // A fed stat still exports min/max.
  reg.observe("fed", 3.0);
  const std::string json2 = reg.json();
  EXPECT_NE(json2.find(R"("fed":{"count":1,"mean":3,"stddev":0,"min":3,"max":3})"),
            std::string::npos);
}

TEST(MetricsRegistryTest, StatHandleIsStableAndFeedsSameAccumulator) {
  MetricsRegistry reg;
  aft::obs::Stat& s = reg.stat("lat");
  s.add(2.0);
  reg.observe("lat", 4.0);
  aft::obs::Stat& again = reg.stat("lat");
  EXPECT_EQ(&s, &again);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.quantile(1.0), 4u);
}

TEST(MetricsRegistryTest, MergeSumsCountersAndFoldsStats) {
  MetricsRegistry a;
  a.add("n", 1);
  a.observe("s", 1.0);
  a.set_gauge("g", 1.0);
  MetricsRegistry b;
  b.add("n", 2);
  b.add("only_b", 7);
  b.observe("s", 3.0);
  b.set_gauge("g", 2.0);

  a.merge(b);
  EXPECT_EQ(a.counter("n"), 3u);
  EXPECT_EQ(a.counter("only_b"), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 2.0);  // later job wins
  ASSERT_NE(a.find_stat("s"), nullptr);
  EXPECT_EQ(a.find_stat("s")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_stat("s")->mean(), 2.0);
}

TEST(ScopedObsTest, MacrosAreNoOpsWithoutInstalledSinks) {
  // Must not crash or allocate a sink implicitly — and under -DAFT_OBS=OFF
  // this is the only behaviour the macros have at all.
  AFT_TRACE("c", "e", {{"k", 1}});
  AFT_METRIC_ADD("n", 1);
  AFT_METRIC_OBSERVE("lat", 1.0);
  AFT_OBS_SET_TIME(5);
  SUCCEED();
}

// The remaining tests exercise the thread-local install path, which is
// compiled out under -DAFT_OBS=OFF (obs::trace() is always nullptr).
#if !defined(AFT_OBS_DISABLED)

TEST(ScopedObsTest, InstallsAndRestoresThreadLocals) {
  EXPECT_EQ(aft::obs::trace(), nullptr);
  EXPECT_EQ(aft::obs::metrics(), nullptr);
  TraceSink sink;
  MetricsRegistry reg;
  {
    ScopedObs scope(&sink, &reg);
    EXPECT_EQ(aft::obs::trace(), &sink);
    EXPECT_EQ(aft::obs::metrics(), &reg);
    {
      ScopedObs inner(nullptr, nullptr);  // nestable: temporarily silences
      EXPECT_EQ(aft::obs::trace(), nullptr);
    }
    EXPECT_EQ(aft::obs::trace(), &sink);
  }
  EXPECT_EQ(aft::obs::trace(), nullptr);
  EXPECT_EQ(aft::obs::metrics(), nullptr);
}

TEST(ScopedObsTest, MacrosRouteToInstalledSinks) {
  TraceSink sink;
  MetricsRegistry reg;
  ScopedObs scope(&sink, &reg);
  AFT_OBS_SET_TIME(3);
  AFT_TRACE("c", "e", {{"k", 1}});
  AFT_METRIC_ADD("n", 2);
  AFT_METRIC_OBSERVE("lat", 7.0);
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_NE(sink.jsonl().find(R"("t":3)"), std::string::npos);
  EXPECT_EQ(reg.counter("n"), 2u);
  ASSERT_NE(reg.find_stat("lat"), nullptr);
  EXPECT_EQ(reg.find_stat("lat")->quantile(0.5), 7u);
  // The one obs clock drives the registry too (timeline windowing).
  EXPECT_EQ(aft::obs::obs_time(), 3u);
}

TEST(ScopedObsTest, EachScopeStartsTheClockAtZeroAndRestoresItOnExit) {
  // Two scopes one after another on one thread, with the clock moved in
  // between: the second scope's records taken before its first dispatch
  // are stamped t=0, as a fresh sink's always were.
  aft::sim::Simulator sim;
  const auto at = [&sim](aft::sim::SimTime t) {
    sim.schedule_at(t, [] { AFT_TRACE("c", "dispatched"); });
    sim.run_all();
  };
  TraceSink first;
  {
    ScopedObs scope(&first, nullptr);
    at(40);
  }
  at(90);  // untraced: the clock still moves
  EXPECT_EQ(aft::obs::obs_time(), 90u);
  TraceSink second;
  {
    ScopedObs scope(&second, nullptr);
    AFT_TRACE("c", "before");
    at(95);
  }
  EXPECT_EQ(aft::obs::obs_time(), 90u);
  const auto lines = lines_of(second.jsonl());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind(R"({"t":0,)", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind(R"({"t":95,)", 0), 0u) << lines[1];
  EXPECT_EQ(lines_of(first.jsonl()).at(0).rfind(R"({"t":40,)", 0), 0u);
}

TEST(ObsCliTest, ParsesFlagsAndInstallsSinks) {
  std::string prog = "bench";
  std::string t1 = "--trace";
  std::string t2 = "/tmp/aft_obs_test_trace.jsonl";
  std::string m1 = "--metrics=/tmp/aft_obs_test_metrics.json";
  std::string d = "--trace-detail";
  char* argv[] = {prog.data(), t1.data(), t2.data(), m1.data(), d.data()};
  {
    aft::obs::ObsCli cli(5, argv);
    EXPECT_TRUE(cli.tracing());
    EXPECT_TRUE(cli.metering());
    ASSERT_NE(aft::obs::trace(), nullptr);
    EXPECT_TRUE(aft::obs::trace()->detail());
    AFT_TRACE("t", "e");
    AFT_METRIC_ADD("m", 1);
  }
  // Files were written on destruction.
  std::ifstream trace_in("/tmp/aft_obs_test_trace.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(trace_in, line));
  EXPECT_NE(line.find(R"("event":"e")"), std::string::npos);
  std::ifstream metrics_in("/tmp/aft_obs_test_metrics.json");
  std::stringstream buf;
  buf << metrics_in.rdbuf();
  EXPECT_NE(buf.str().find(R"("m":1)"), std::string::npos);
}

#endif  // !AFT_OBS_DISABLED

TEST(ObsCliTest, NoFlagsMeansNoSinks) {
  std::string prog = "bench";
  char* argv[] = {prog.data()};
  aft::obs::ObsCli cli(1, argv);
  EXPECT_FALSE(cli.tracing());
  EXPECT_FALSE(cli.metering());
  EXPECT_EQ(aft::obs::trace(), nullptr);
}

// --- Field rendering -------------------------------------------------------

TEST(FieldTest, StringValuesEscapeControlCharactersAndKeepUtf8) {
  TraceSink sink;
  sink.emit("c", "e", {{"k", "tab\there\x01 snow\xE2\x98\x83"}});
  // Control characters become \t / \u0001; multi-byte UTF-8 passes through
  // untouched (JSONL stays valid UTF-8 without mangling non-ASCII names).
  EXPECT_EQ(sink.jsonl(),
            "{\"t\":0,\"seq\":0,\"component\":\"c\",\"event\":\"e\","
            "\"k\":\"tab\\there\\u0001 snow\xE2\x98\x83\"}\n");
}

TEST(FieldTest, AppendJsonStringEscapesEveryControlCharacter) {
  for (int c = 0; c < 0x20; ++c) {
    std::string out;
    const char raw[2] = {static_cast<char>(c), '\0'};
    aft::obs::append_json_string(out, std::string_view(raw, 1));
    ASSERT_GE(out.size(), 4u) << "control char " << c << " not escaped";
    for (const char ch : out) {
      ASSERT_TRUE(static_cast<unsigned char>(ch) >= 0x20)
          << "raw control byte leaked for " << c;
    }
  }
}

TEST(FieldTest, AppendJsonDoubleRoundTrips) {
  // to_chars emits the shortest representation that parses back exactly —
  // the property campaign diffs rely on (no locale, no precision drift).
  for (const double v : {0.25, 0.1, -0.0, 1e300, 3.141592653589793,
                         5e-324, -123456.789}) {
    std::string out;
    aft::obs::append_json_double(out, v);
    double parsed = 0.0;
    const auto [p, ec] =
        std::from_chars(out.data(), out.data() + out.size(), parsed);
    ASSERT_EQ(ec, std::errc()) << out;
    ASSERT_EQ(p, out.data() + out.size()) << out;
    EXPECT_EQ(parsed, v) << out;
    EXPECT_EQ(out.find(','), std::string::npos) << out;  // locale-proof
  }
}

// --- Span / cause serialization -------------------------------------------

TEST(TraceSinkTest, SpanAndCauseSerializedAfterSeqWhenSet) {
  TraceSink sink;
  sink.emit("c", "plain");
  sink.set_span(0);
  sink.set_cause(0);
  aft::obs::set_obs_time(4);
  sink.emit("c", "chained", {{"k", 1}});

  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 2u);
  // Unset refs are omitted entirely: pre-causality traces stay byte-stable.
  EXPECT_EQ(lines[0], R"({"t":0,"seq":0,"component":"c","event":"plain"})");
  EXPECT_EQ(lines[1],
            R"({"t":4,"seq":1,"span":0,"cause":0,"component":"c","event":"chained","k":1})");
}

TEST(TraceSinkTest, EmitReturnsFutureSeqAndNoEventAtCap) {
  TraceSink sink(/*max_events=*/2);
  EXPECT_EQ(sink.emit("c", "a"), 0u);
  EXPECT_EQ(sink.emit("c", "b"), 1u);
  EXPECT_EQ(sink.emit("c", "dropped"), aft::obs::kNoEvent);
}

TEST(TraceSinkTest, AppendRebasesSpanAndCauseReferences) {
  // Two campaign jobs, each with a job-local causal chain; after the merge
  // the second job's refs must point at its own (shifted) events.
  auto make_job = [] {
    TraceSink job;
    const aft::obs::EventId origin = job.emit("hw.inject", "seu");
    job.set_cause(origin);
    job.emit("detect", "latch");
    return job;
  };
  TraceSink merged;
  TraceSink job0 = make_job();
  TraceSink job1 = make_job();
  merged.append(std::move(job0));
  merged.append(std::move(job1));

  const auto lines = lines_of(merged.jsonl());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find(R"("seq":1,"cause":0)"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("seq":3,"cause":2)"), std::string::npos);
}

// --- Flight recorder (ring mechanics are runtime, not macro-gated) ---------

TEST(FlightRecorderTest, RingKeepsMostRecentRecordsAndLifetimeCount) {
  aft::obs::FlightRecorder recorder(/*capacity=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.record(i, "c", "e", aft::obs::kNoEvent, aft::obs::kNoEvent);
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.recorded(), 5u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().t, 2u);  // oldest survivor
  EXPECT_EQ(records.back().t, 4u);
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.recorded(), 5u);  // lifetime counter survives drain
}

TEST(FlightRecorderTest, RenderJsonlEmitsHeaderThenRecords) {
  aft::obs::FlightRecorder recorder(4);
  recorder.record(7, "mem.ecc", "corrected", 2, aft::obs::kNoEvent);
  std::string out;
  aft::obs::FlightRecorder::render_jsonl(out, "test", recorder.snapshot());
  const auto lines = lines_of(out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            R"({"component":"flight","event":"dump","reason":"test","records":1})");
  EXPECT_EQ(
      lines[1],
      R"({"t":7,"component":"mem.ecc","event":"corrected","span":2,"cause":-1})");
}

#if !defined(AFT_OBS_DISABLED)

// --- Spans -----------------------------------------------------------------

TEST(SpanGuardTest, NestedSpansEncodeTreeAndRestoreCurrent) {
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  {
    AFT_SPAN("t", "outer");  // span-begin seq 0
    sink.emit("t", "a");     // span 0
    {
      AFT_SPAN("t", "inner");  // span-begin seq 2, parent span 0
      sink.emit("t", "b");     // span 2
    }                          // span-end, span 2
    sink.emit("t", "c");       // span 0 again
  }
  EXPECT_EQ(sink.span(), aft::obs::kNoEvent);

  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_NE(lines[0].find(R"("event":"span-begin","name":"outer")"),
            std::string::npos);
  EXPECT_EQ(lines[0].find(R"("span":)"), std::string::npos);  // root span
  EXPECT_NE(lines[1].find(R"("span":0,"component":"t","event":"a")"),
            std::string::npos);
  // Inner begin carries the parent span — the file encodes the span tree.
  EXPECT_NE(lines[2].find(R"("span":0,"component":"t","event":"span-begin")"),
            std::string::npos);
  EXPECT_NE(lines[3].find(R"("span":2)"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("span":2,"component":"t","event":"span-end")"),
            std::string::npos);
  EXPECT_NE(lines[5].find(R"("span":0,"component":"t","event":"c")"),
            std::string::npos);
  EXPECT_NE(lines[6].find(R"("span":0,"component":"t","event":"span-end")"),
            std::string::npos);
}

// --- Cause propagation through the simulation kernel -----------------------

TEST(SimulatorCauseTest, DispatchedEventsInheritSchedulingCause) {
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  aft::sim::Simulator simulator;

  const aft::obs::EventId origin = sink.emit("hw.inject", "seu");
  sink.set_cause(origin);
  simulator.schedule_in(5, [&] { sink.emit("detect", "late"); });
  // The chain origin is scoped to its turn; the scheduled continuation must
  // still inherit it from the snapshot taken at schedule time.
  sink.set_cause(aft::obs::kNoEvent);
  sink.emit("other", "unrelated");
  simulator.run_until(10);

  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].find(R"("cause":)"), std::string::npos);
  EXPECT_NE(lines[2].find(R"("cause":0,"component":"detect","event":"late")"),
            std::string::npos);
}

// --- Chain-link cause scopes ------------------------------------------------

TEST(CauseScopeTest, RecordIsTheCauseForTheScopeAndRestoredOnUnwind) {
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  const aft::obs::EventId ambient = sink.emit("t", "ambient");  // seq 0
  sink.set_cause(ambient);
  {
    const aft::obs::CauseScope link("t", "link", {{"k", 1}});  // seq 1
    EXPECT_EQ(sink.cause(), 1u);
    sink.emit("t", "reaction");  // seq 2
  }
  EXPECT_EQ(sink.cause(), ambient);
  EXPECT_THROW(
      {
        const aft::obs::CauseScope link("t", "link");
        throw std::runtime_error("reaction failed");
      },
      std::runtime_error);
  EXPECT_EQ(sink.cause(), ambient);

  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find(R"("cause":0,"component":"t","event":"link","k":1)"),
            std::string::npos);
  EXPECT_NE(lines[2].find(R"("cause":1,"component":"t","event":"reaction")"),
            std::string::npos);
}

TEST(CauseScopeTest, EmittedUnderStampsTheRecordAndRestoresTheAmbient) {
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  const aft::obs::EventId evidence = sink.emit("t", "evidence");  // seq 0
  const aft::obs::EventId ambient = sink.emit("t", "ambient");    // seq 1
  sink.set_cause(ambient);
  {
    const aft::obs::CauseScope link("t", "verdict", {}, evidence);  // seq 2
    EXPECT_EQ(sink.cause(), 2u);
  }
  EXPECT_EQ(sink.cause(), ambient);
  const auto lines = lines_of(sink.jsonl());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[2].find(R"("cause":0,"component":"t","event":"verdict")"),
            std::string::npos);
}

TEST(CauseScopeTest, InstallsAnExistingIdIncludingNone) {
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  const aft::obs::EventId origin = sink.emit("t", "origin");
  const aft::obs::EventId ambient = sink.emit("t", "ambient");
  sink.set_cause(ambient);
  EXPECT_EQ(aft::obs::current_cause(), ambient);
  {
    const aft::obs::CauseScope queued(origin);
    EXPECT_EQ(aft::obs::current_cause(), origin);
  }
  {
    const aft::obs::CauseScope queued(aft::obs::kNoEvent);
    EXPECT_EQ(aft::obs::current_cause(), aft::obs::kNoEvent);
  }
  EXPECT_EQ(aft::obs::current_cause(), ambient);
}

TEST(CauseScopeTest, RecordDroppedByTheCapInstallsNothing) {
  TraceSink sink(/*max_events=*/1);
  ScopedObs scope(&sink, nullptr);
  const aft::obs::EventId ambient = sink.emit("t", "ambient");
  sink.set_cause(ambient);
  {
    const aft::obs::CauseScope link("t", "link");
    EXPECT_EQ(sink.cause(), ambient);
  }
  EXPECT_EQ(sink.cause(), ambient);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(FlightRecorderTest, AThreadInstallsItsOwnRecorderOnItsFirstNote) {
  if (aft::obs::flight() == nullptr || !aft::obs::FlightRecorder::enabled()) {
    GTEST_SKIP() << "recording is off";
  }
  std::thread([] {
    // Before its first note a thread holds the shared, ringless placeholder.
    aft::obs::FlightRecorder* const placeholder = aft::obs::flight();
    ASSERT_EQ(placeholder, &aft::obs::FlightRecorder::placeholder);
    EXPECT_EQ(placeholder->capacity(), 0u);
    aft::obs::set_obs_time(7);
    aft::obs::flight_note("c", "first");
    aft::obs::FlightRecorder* const own = aft::obs::flight();
    ASSERT_NE(own, placeholder);
    EXPECT_EQ(placeholder->size(), 0u);  // the placeholder is never written
    const auto records = own->snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].t, 7u);
    EXPECT_EQ(records[0].event, "first");
  }).join();
}

TEST(CauseScopeTest, WithoutASinkTheRecordGoesToTheFlightRecorder) {
  aft::obs::FlightRecorder recorder(8);
  aft::obs::ScopedFlight flight_scope(&recorder);
  EXPECT_EQ(aft::obs::current_cause(), aft::obs::kNoEvent);
  { const aft::obs::CauseScope link("net.link", "send", {{"id", 7}}); }
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "net.link");
  EXPECT_EQ(records[0].event, "send");
}

// --- Flight dump into an installed sink ------------------------------------

TEST(FlightRecorderTest, DumpLandsInSinkAndDrainsRing) {
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  aft::obs::FlightRecorder recorder(8);
  aft::obs::ScopedFlight flight_scope(&recorder);

  aft::obs::flight_note("mem.ecc", "corrected");
  aft::obs::flight_note("detect.dual", "suspend");
  aft::obs::flight_dump("test-incident");

  const std::string jsonl = sink.jsonl();
  EXPECT_NE(jsonl.find(R"("event":"dump","reason":"test-incident","records":2)"),
            std::string::npos);
  EXPECT_NE(jsonl.find(R"("rcomponent":"mem.ecc","revent":"corrected")"),
            std::string::npos);
  EXPECT_TRUE(recorder.empty());

  // Drained: a second dump must be a no-op, not a replay.
  const std::size_t size_before = sink.size();
  aft::obs::flight_dump("again");
  EXPECT_EQ(sink.size(), size_before);
}

TEST(FlightRecorderTest, SinkEmitsFeedTheInstalledRecorder) {
  aft::obs::FlightRecorder recorder(8);
  aft::obs::ScopedFlight flight_scope(&recorder);
  TraceSink sink;
  ScopedObs scope(&sink, nullptr);
  aft::obs::set_obs_time(42);
  sink.emit("c", "e");
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t, 42u);
  EXPECT_EQ(records[0].component, "c");
}

#endif  // !AFT_OBS_DISABLED

// --- ObsCli usage errors ---------------------------------------------------

TEST(ObsCliDeathTest, MissingTraceOperandExitsWithUsage) {
  std::string prog = "bench";
  std::string flag = "--trace";
  char* argv[] = {prog.data(), flag.data()};
  EXPECT_EXIT(aft::obs::ObsCli(2, argv), ::testing::ExitedWithCode(2),
              "--trace requires a path operand");
}

TEST(ObsCliDeathTest, FlagFollowedByFlagExitsWithUsage) {
  std::string prog = "bench";
  std::string flag = "--trace";
  std::string next = "--metrics=m.json";
  char* argv[] = {prog.data(), flag.data(), next.data()};
  EXPECT_EXIT(aft::obs::ObsCli(3, argv), ::testing::ExitedWithCode(2),
              "--trace requires a path operand");
}

TEST(ObsCliDeathTest, EmptyMetricsOperandExitsWithUsage) {
  std::string prog = "bench";
  std::string flag = "--metrics=";
  char* argv[] = {prog.data(), flag.data()};
  EXPECT_EXIT(aft::obs::ObsCli(2, argv), ::testing::ExitedWithCode(2),
              "--metrics requires a path operand");
}

}  // namespace
