// Tests for the aft_trace post-mortem tooling (tools/): the JSONL reader,
// the causal-chain / latency / diff / chrome analyses — and the end-to-end
// acceptance path: on a Fig. 6 trace, `why <raise>` must reconstruct the
// chain from the injected fault through the dissent to the switchboard
// reconfiguration.
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "arch/event_bus.hpp"
#include "autonomic/experiment.hpp"
#include "net/bridge.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "obs_clock_reset.hpp"
#include "sim/simulator.hpp"
#include "trace_analysis.hpp"
#include "trace_reader.hpp"

namespace {

using aft::obs::ScopedObs;
using aft::obs::TraceSink;
using aft::tools::Trace;
using aft::tools::TraceEvent;

Trace parse(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string error;
  const auto trace = aft::tools::parse_trace(in, error);
  EXPECT_TRUE(trace.has_value()) << error;
  return trace.value_or(Trace{});
}

TEST(TraceReaderTest, RoundTripsSinkOutput) {
  TraceSink sink;
  aft::obs::set_obs_time(3);
  sink.emit("mem.ecc", "corrected", {{"addr", 42u}, {"origin", "read"}});
  sink.set_cause(0);
  aft::obs::set_obs_time(5);
  sink.emit("detect", "latch", {{"score", 2.5}, {"s", "a\"b\\c\n\x01"}});

  const Trace trace = parse(sink.jsonl());
  ASSERT_EQ(trace.events.size(), 2u);
  const TraceEvent& e0 = trace.events[0];
  EXPECT_EQ(e0.t, 3u);
  EXPECT_EQ(e0.seq, 0u);
  EXPECT_EQ(e0.cause, -1);
  EXPECT_EQ(e0.component, "mem.ecc");
  EXPECT_EQ(e0.event, "corrected");
  ASSERT_NE(e0.field("addr"), nullptr);
  EXPECT_EQ(*e0.field("addr"), "42");
  const TraceEvent& e1 = trace.events[1];
  EXPECT_EQ(e1.cause, 0);
  ASSERT_NE(e1.field("score"), nullptr);
  EXPECT_EQ(*e1.field("score"), "2.5");
  // Escapes decode back to the original bytes.
  ASSERT_NE(e1.field("s"), nullptr);
  EXPECT_EQ(*e1.field("s"), "a\"b\\c\n\x01");
}

TEST(TraceReaderTest, ReadsTruncationFooterIntoDropped) {
  TraceSink sink(/*max_events=*/1);
  sink.emit("c", "kept");
  sink.emit("c", "dropped");
  sink.emit("c", "dropped");
  const Trace trace = parse(sink.jsonl());
  EXPECT_EQ(trace.dropped, 2u);
}

TEST(TraceReaderTest, ReportsMalformedLines) {
  std::istringstream in("{\"t\":1,\"seq\":0,\"component\":\"c\"\nnot json\n");
  std::string error;
  EXPECT_FALSE(aft::tools::parse_trace(in, error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(TraceReaderTest, BinaryDecodesIdenticallyToJsonl) {
  // Every field kind, span/cause refs, time deltas, escapes, non-finite
  // doubles: the binary reader must produce the exact event sequence the
  // JSONL reader does, so every analysis (and `aft_trace diff`) is
  // format-blind.
  TraceSink sink;
  aft::obs::set_obs_time(3);
  const auto origin = sink.emit(
      "hw.inject", "seu",
      {{"addr", 42u}, {"delta", std::int64_t{-17}}, {"rate", 0.125}});
  sink.set_cause(origin);
  sink.set_span(origin);
  aft::obs::set_obs_time(1000000);
  sink.emit("detect", "latch",
            {{"latched", true},
             {"s", "a\"b\\c\n\x01"},
             {"nan", std::nan("")},
             {"inf", -1.0 / 0.0}});
  sink.set_cause(aft::obs::kNoEvent);
  sink.set_span(aft::obs::kNoEvent);
  aft::obs::set_obs_time(1000001);
  sink.emit("detect", "clear");

  const Trace from_jsonl = parse(sink.jsonl());
  std::string error;
  const auto from_bin = aft::tools::parse_trace_data(sink.binary(), error);
  ASSERT_TRUE(from_bin.has_value()) << error;

  EXPECT_TRUE(
      aft::tools::diff_traces(from_jsonl, *from_bin, "jsonl", "bin").identical);
  ASSERT_EQ(from_bin->events.size(), 3u);
  const TraceEvent& e0 = from_bin->events[0];
  EXPECT_EQ(e0.t, 3u);
  EXPECT_EQ(*e0.field("addr"), "42");
  EXPECT_EQ(*e0.field("delta"), "-17");
  EXPECT_EQ(*e0.field("rate"), "0.125");
  const TraceEvent& e1 = from_bin->events[1];
  EXPECT_EQ(e1.t, 1000000u);
  EXPECT_EQ(e1.cause, 0);
  EXPECT_EQ(*e1.field("latched"), "true");
  EXPECT_EQ(*e1.field("s"), "a\"b\\c\n\x01");
  EXPECT_EQ(*e1.field("nan"), "nan");
  EXPECT_EQ(*e1.field("inf"), "-inf");
  EXPECT_EQ(from_bin->events[2].cause, -1);
}

TEST(TraceReaderTest, BinaryTruncationFooterIsSynthesized) {
  TraceSink sink(/*max_events=*/1);
  aft::obs::set_obs_time(7);
  sink.emit("c", "kept");
  sink.emit("c", "dropped");
  sink.emit("c", "dropped");
  std::string error;
  const auto trace = aft::tools::parse_trace_data(sink.binary(), error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->dropped, 2u);
  // The reader synthesizes the same trace/truncated footer the JSONL
  // writer appends, so format choice cannot change what analyses see.
  ASSERT_EQ(trace->events.size(), 2u);
  EXPECT_EQ(trace->events.back().component, "trace");
  EXPECT_EQ(trace->events.back().event, "truncated");
  EXPECT_EQ(*trace->events.back().field("dropped"), "2");
}

TEST(TraceReaderTest, UnknownBinaryVersionIsRejectedWithClearMessage) {
  TraceSink sink;
  sink.emit("c", "e");
  std::string bin = sink.binary();
  bin[4] = 9;  // future version
  std::string error;
  EXPECT_FALSE(aft::tools::parse_trace_data(bin, error).has_value());
  EXPECT_NE(error.find("unsupported binary trace version 9"),
            std::string::npos);
}

TEST(TraceReaderTest, CorruptBinaryIsRejectedNotMisread) {
  TraceSink sink;
  sink.set_cause(sink.emit("c", "e", {{"k", 1u}}));
  sink.emit("c", "f");
  const std::string good = sink.binary();
  std::string error;

  // Truncated mid-record.
  EXPECT_FALSE(
      aft::tools::parse_trace_data(good.substr(0, good.size() - 2), error)
          .has_value());
  EXPECT_NE(error.find("corrupt binary trace"), std::string::npos);

  // Header shorter than the magic.
  EXPECT_FALSE(aft::tools::parse_trace_data("AFT", error).has_value());

  // A cause delta pointing before the first record must not wrap around.
  // Hand-built file: header, one string "c", one record, no drops; the
  // record body claims cause = seq - 5 on seq 0.
  const std::string bad =
      std::string("AFTB\x01\x00", 6) + std::string("\x01\x01", 2) + "c" +
      std::string("\x01\x00", 2) +         // record_count=1, dropped=0
      std::string("\x06", 1) +             // body length
      std::string("\x00\x02\x05\x00\x00\x00", 6);  // t, flags, cause, c, e, 0
  EXPECT_FALSE(aft::tools::parse_trace_data(bad, error).has_value());
  EXPECT_NE(error.find("bad cause ref"), std::string::npos);
}

TEST(TraceReaderTest, LengthsNearTwoToTheSixtyFourAreRejectedNotWrapped) {
  // A varint length of 2^64 - 1 must not wrap the bounds check around to a
  // small end offset.  String table: count 2, the first string's length is
  // 2^64 - 1, followed by three bytes.
  const std::string huge("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 10);
  const std::string bad_string = std::string("AFTB\x01\x00\x02", 7) + huge +
                                 std::string("\x78\x00\x00", 3);
  std::string error;
  EXPECT_FALSE(aft::tools::parse_trace_data(bad_string, error).has_value());
  EXPECT_NE(error.find("corrupt binary trace"), std::string::npos) << error;

  // The same length as a record body: no strings, one record, no drops.
  const std::string bad_body = std::string("AFTB\x01\x00\x00\x01\x00", 9) +
                               huge + std::string("\x00\x00", 2);
  error.clear();
  EXPECT_FALSE(aft::tools::parse_trace_data(bad_body, error).has_value());
  EXPECT_NE(error.find("corrupt binary trace"), std::string::npos) << error;
}

TEST(TraceReaderTest, EveryPrefixAndByteFlipOfABinaryTraceDecodesOrIsRejected) {
  // A deterministic mutation sweep over the one AFTB decoder.  The trace
  // has every field kind (non-finite and negative-zero doubles included), a
  // string that needs \u escapes in JSONL, a record body of at least 128
  // bytes (a two-byte length prefix), span and cause refs, a backward time
  // step and records dropped at the cap.
  TraceSink sink(3);
  aft::obs::set_obs_time(7);
  const auto origin = sink.emit("hw.inject", "seu", {{"addr", 42u}});
  sink.set_cause(origin);
  sink.set_span(origin);
  aft::obs::set_obs_time(9);
  constexpr std::uint64_t kBig = ~std::uint64_t{0};
  sink.emit("detect", "latch",
            {{"u", kBig},
             {"i", std::int64_t{INT64_MIN}},
             {"nan", std::nan("")},
             {"inf", 1.0 / 0.0},
             {"ninf", -1.0 / 0.0},
             {"nzero", -0.0},
             {"yes", true},
             {"s", "tab\there\x01"},
             {"a", kBig},
             {"b", kBig},
             {"c", kBig},
             {"d", kBig},
             {"e", kBig}});
  aft::obs::set_obs_time(8);
  sink.emit("detect", "clear", {{"no", false}});
  sink.emit("detect", "dropped", {{"unseen", "string"}});
  sink.emit("detect", "dropped");
  ASSERT_EQ(sink.dropped(), 2u);
  const std::string good = sink.binary();
  std::string error;
  const auto decoded = aft::tools::parse_trace_data(good, error);
  ASSERT_TRUE(decoded.has_value()) << error;
  ASSERT_EQ(decoded->events.size(), 4u);
  EXPECT_EQ(*decoded->events[1].field("nzero"), "-0");

  // Each input sits in a heap block of exactly its size, so a read past
  // its end is an out-of-bounds read under AddressSanitizer.  Returns
  // whether the input decoded.
  const auto decodes_or_is_rejected = [](const std::string& input,
                                         const std::string& what) {
    const auto block = std::make_unique<char[]>(input.size());
    std::memcpy(block.get(), input.data(), input.size());
    const std::string_view bytes(block.get(), input.size());
    std::string err;
    const auto trace = aft::tools::parse_trace_data(bytes, err);
    if (trace.has_value()) {
      for (const TraceEvent& e : trace->events) {
        EXPECT_LE(e.span, static_cast<std::int64_t>(e.seq)) << what;
        EXPECT_LE(e.cause, static_cast<std::int64_t>(e.seq)) << what;
      }
      return true;
    }
    if (bytes.starts_with("AFTB")) {
      EXPECT_TRUE(err.starts_with("corrupt binary trace: ") ||
                  err.starts_with("unsupported binary trace version"))
          << what << ": " << err;
    } else {
      // Without the magic the bytes go to the JSONL reader.
      EXPECT_TRUE(err.starts_with("line ")) << what << ": " << err;
    }
    return false;
  };
  for (std::size_t n = 0; n < good.size(); ++n) {
    const bool decoded_prefix = decodes_or_is_rejected(
        good.substr(0, n), "prefix of " + std::to_string(n) + " bytes");
    // Only the empty prefix is a (JSONL) trace: every other one is cut
    // short somewhere.
    EXPECT_EQ(decoded_prefix, n == 0) << n;
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string flipped = good;
    flipped[i] = static_cast<char>(flipped[i] ^ '\xFF');
    decodes_or_is_rejected(flipped, "byte " + std::to_string(i) + " flipped");
  }
}

TEST(TraceReaderTest, LoadTraceSniffsBinaryFilesByMagic) {
  TraceSink sink;
  aft::obs::set_obs_time(4);
  sink.emit("c", "e", {{"k", "v"}});
  const std::string path = "/tmp/aft_trace_test_sniff.bin";
  {
    std::ofstream out(path, std::ios::binary);
    sink.write_binary(out);
  }
  std::string error;
  const auto trace = aft::tools::load_trace(path, error);
  ASSERT_TRUE(trace.has_value()) << error;
  ASSERT_EQ(trace->events.size(), 1u);
  EXPECT_EQ(trace->events[0].component, "c");
  EXPECT_EQ(*trace->events[0].field("k"), "v");
}

TEST(TraceAnalysisTest, CausalChainWalksToRootAndWhyRendersIt) {
  TraceSink sink;
  aft::obs::set_obs_time(10);
  const auto origin = sink.emit("hw.inject", "seu", {{"addr", 7u}});
  sink.set_cause(origin);
  aft::obs::set_obs_time(12);
  sink.set_cause(sink.emit("detect.dual", "suspend"));
  aft::obs::set_obs_time(15);
  sink.emit("autonomic.switchboard", "raise", {{"replicas", 5u}});

  const Trace trace = parse(sink.jsonl());
  const auto chain = aft::tools::causal_chain(trace, 2);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain.front()->component, "hw.inject");
  EXPECT_EQ(chain.back()->event, "raise");

  const std::string why = aft::tools::render_why(trace, 2);
  EXPECT_NE(why.find("#0 t=10 hw.inject/seu addr=7"), std::string::npos);
  EXPECT_NE(why.find("-> #2 t=15 autonomic.switchboard/raise"),
            std::string::npos);
}

TEST(TraceAnalysisTest, LatencyPairsStagesPerChainWithAddrFallback) {
  TraceSink sink;
  // Chain A: cause-linked inject -> detect (2 ticks) -> repair (5 ticks).
  aft::obs::set_obs_time(10);
  sink.set_cause(sink.emit("hw.inject", "seu", {{"addr", 1u}}));
  aft::obs::set_obs_time(12);
  sink.emit("detect.dual", "suspend");
  aft::obs::set_obs_time(15);
  sink.emit("mem.remap", "remap", {{"addr", 1u}});
  sink.set_cause(aft::obs::kNoEvent);
  // Chain B: no cause link, but the detection names the injected address —
  // the addr fallback must attribute it (4 ticks).
  aft::obs::set_obs_time(20);
  sink.emit("hw.inject", "stuck", {{"addr", 9u}});
  aft::obs::set_obs_time(24);
  sink.emit("mem.ecc", "corrected", {{"addr", 9u}});
  // Orphan: a detection with no ancestor and no matching address.
  aft::obs::set_obs_time(30);
  sink.emit("detect.watchdog", "miss", {{"channel", 3u}});

  const auto report = aft::tools::compute_latency(parse(sink.jsonl()));
  EXPECT_EQ(report.inject_to_detect.count, 2u);
  EXPECT_EQ(report.inject_to_detect.min, 2u);
  EXPECT_EQ(report.inject_to_detect.max, 4u);
  EXPECT_EQ(report.inject_to_repair.count, 1u);
  EXPECT_EQ(report.inject_to_repair.min, 5u);
  EXPECT_EQ(report.orphan_detects, 1u);
}

TEST(TraceAnalysisTest, DiffDetectsCensusAndOrderDivergence) {
  TraceSink a;
  a.emit("c", "x");
  a.emit("c", "y");
  TraceSink b;
  b.emit("c", "x");
  aft::obs::set_obs_time(1);
  b.emit("c", "z");

  const Trace ta = parse(a.jsonl());
  const Trace tb = parse(b.jsonl());
  EXPECT_TRUE(aft::tools::diff_traces(ta, ta, "a", "a2").identical);
  const auto diff = aft::tools::diff_traces(ta, tb, "a", "b");
  EXPECT_FALSE(diff.identical);
  EXPECT_NE(diff.report.find("c/y"), std::string::npos);
  EXPECT_NE(diff.report.find("first divergence at seq 1"), std::string::npos);
}

TEST(TraceAnalysisTest, ChromeExportPairsSpansIntoSlices) {
  TraceSink sink;
  sink.emit("bench", "span-begin", {{"name", "run"}});
  sink.set_span(0);
  aft::obs::set_obs_time(2);
  sink.emit("mem.ecc", "corrected", {{"addr", 3u}});
  aft::obs::set_obs_time(9);
  sink.emit("bench", "span-end");
  const std::string json = aft::tools::to_chrome_trace(parse(sink.jsonl()));
  EXPECT_NE(json.find(R"("name":"run","ph":"X","dur":9)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"mem.ecc/corrected","ph":"i")"),
            std::string::npos);
  // span-end folds into the slice instead of appearing as its own event.
  EXPECT_EQ(json.find("span-end"), std::string::npos);
}

TEST(TraceAnalysisTest, SummaryCountsClassesAndChains) {
  TraceSink sink;
  sink.set_cause(sink.emit("hw.inject", "seu"));
  sink.emit("detect.dual", "suspend");
  sink.emit("autonomic.switchboard", "raise");
  const std::string summary =
      aft::tools::render_summary(parse(sink.jsonl()));
  EXPECT_NE(summary.find("injections: 1"), std::string::npos);
  EXPECT_NE(summary.find("detections: 1"), std::string::npos);
  EXPECT_NE(summary.find("repairs: 1"), std::string::npos);
  EXPECT_NE(summary.find("causal chains: 1"), std::string::npos);
}

#if !defined(AFT_OBS_DISABLED)

// Acceptance: cause chains survive the wire.  A message published on node
// A's bus and re-published on node B's bus by the bridge pair must leave a
// trace in which `why <remote publish>` walks back through the link send to
// the originating publish on A.
TEST(TraceAnalysisTest, WhyOnARemotePublishReachesTheOriginatingPublish) {
  TraceSink sink;
  std::string jsonl;
  {
    ScopedObs scope(&sink, nullptr);
    aft::sim::Simulator sim;
    aft::arch::EventBus bus_a;
    aft::arch::EventBus bus_b;
    aft::net::Link a2b(sim, "a->b", aft::net::LinkFaults{}, 51);
    aft::net::Link b2a(sim, "b->a", aft::net::LinkFaults{}, 52);
    aft::net::Endpoint ep_a(sim, "node-a", 53);
    aft::net::Endpoint ep_b(sim, "node-b", 54);
    ep_a.attach(b2a, a2b);
    ep_b.attach(a2b, b2a);
    aft::net::BusBridge bridge_a(bus_a, ep_a, "A");
    aft::net::BusBridge bridge_b(bus_b, ep_b, "B");
    bridge_a.forward_topic("detect.clash");
    bus_a.publish({"detect.clash", "detector-7", "threshold crossed"});
    sim.run_all();
    jsonl = sink.jsonl();
  }
  const Trace trace = parse(jsonl);

  // The remote re-publish is the second arch.bus/publish record.
  const TraceEvent* remote = nullptr;
  for (const TraceEvent& e : trace.events) {
    if (e.component == "arch.bus" && e.event == "publish") remote = &e;
  }
  ASSERT_NE(remote, nullptr);

  const auto chain = aft::tools::causal_chain(trace, remote->seq);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->component, "arch.bus");
  EXPECT_EQ(chain[0]->event, "publish");
  EXPECT_NE(chain[0], remote);  // the *originating* publish on node A
  EXPECT_EQ(chain[1]->component, "net.link");
  EXPECT_EQ(chain[1]->event, "send");
  EXPECT_EQ(chain[2], remote);

  const std::string why = aft::tools::render_why(trace, remote->seq);
  EXPECT_NE(why.find("arch.bus/publish"), std::string::npos);
  EXPECT_NE(why.find("net.link/send"), std::string::npos);
}

// Acceptance: an RPC completion chains back to its call through both wire
// hops (request send and response send).
TEST(TraceAnalysisTest, WhyOnAnRpcCompletionReachesTheCall) {
  TraceSink sink;
  std::string jsonl;
  {
    ScopedObs scope(&sink, nullptr);
    aft::sim::Simulator sim;
    aft::net::Link a2b(sim, "a->b", aft::net::LinkFaults{}, 61);
    aft::net::Link b2a(sim, "b->a", aft::net::LinkFaults{}, 62);
    aft::net::Endpoint client(sim, "client", 63);
    aft::net::Endpoint server(sim, "server", 64);
    client.attach(b2a, a2b);
    server.attach(a2b, b2a);
    server.serve("echo",
                 [](const std::string& request, std::string& response) {
                   response = request;
                   return true;
                 });
    client.call("echo", "hi", aft::net::CallOptions{},
                [](const aft::net::RpcResult&) {});
    sim.run_all();
    jsonl = sink.jsonl();
  }
  const Trace trace = parse(jsonl);

  const TraceEvent* done = nullptr;
  for (const TraceEvent& e : trace.events) {
    if (e.component == "net.rpc" && e.event == "done") done = &e;
  }
  ASSERT_NE(done, nullptr);

  // done <- response send <- request send <- call.
  const auto chain = aft::tools::causal_chain(trace, done->seq);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0]->component, "net.rpc");
  EXPECT_EQ(chain[0]->event, "call");
  EXPECT_EQ(chain[1]->component, "net.link");
  EXPECT_EQ(chain[1]->event, "send");
  EXPECT_EQ(chain[2]->component, "net.link");
  EXPECT_EQ(chain[2]->event, "send");
  EXPECT_EQ(chain[3], done);
}

// Acceptance: on a real Fig. 6 adaptation trace, walking the causal chain
// of a switchboard raise must land on the injected fault that provoked it.
TEST(TraceAnalysisTest, Fig6RaiseChainsBackToInjectedFault) {
  TraceSink sink;
  std::string jsonl;
  {
    ScopedObs scope(&sink, nullptr);
    aft::autonomic::ExperimentConfig config;
    config.seed = 2009;
    config.policy.lower_after = 1000;
    const auto result = aft::autonomic::run_adaptation_experiment(
        config, aft::autonomic::fig6_script());
    ASSERT_GT(result.raises, 0u);
    jsonl = sink.jsonl();
  }
  const Trace trace = parse(jsonl);

  const TraceEvent* raise = nullptr;
  for (const TraceEvent& e : trace.events) {
    if (e.component == "autonomic.switchboard" && e.event == "raise") {
      raise = &e;
      break;
    }
  }
  ASSERT_NE(raise, nullptr) << "fig6 run produced no raise";

  const auto chain = aft::tools::causal_chain(trace, raise->seq);
  ASSERT_GE(chain.size(), 3u);
  EXPECT_EQ(chain.front()->component, "hw.inject");
  EXPECT_EQ(chain.front()->event, "corrupt");
  // The detector-side symptom sits between the fault and the reaction.
  EXPECT_EQ(chain[chain.size() - 2]->component, "vote.farm");
  EXPECT_EQ(chain[chain.size() - 2]->event, "dissent");
  EXPECT_EQ(chain.back(), raise);

  // And the latency analysis attributes detections to injections.
  const auto latency = aft::tools::compute_latency(trace);
  EXPECT_GT(latency.inject_to_detect.count, 0u);
}

TEST(TraceAnalysisTest, SloPairsDoneWithCallViaChainAndFallback) {
  TraceSink sink;
  // Chain A: cause-linked call -> done, ok in 8 ticks after 1 attempt.
  aft::obs::set_obs_time(10);
  sink.set_cause(sink.emit(
      "net.rpc", "call",
      {{"endpoint", "client"}, {"id", 1u}, {"method", "echo"}}));
  aft::obs::set_obs_time(18);
  sink.emit("net.rpc", "done",
            {{"endpoint", "client"}, {"id", 1u}, {"status", "ok"},
             {"attempts", 1u}});
  sink.set_cause(aft::obs::kNoEvent);
  // Chain B: the cause link is cut (trace cap shape) — the endpoint+id
  // fallback must still pair it.  Fails after 3 attempts, 30 ticks.
  aft::obs::set_obs_time(20);
  sink.emit("net.rpc", "call",
            {{"endpoint", "client"}, {"id", 2u}, {"method", "echo"}});
  aft::obs::set_obs_time(50);
  sink.emit("net.rpc", "done",
            {{"endpoint", "client"}, {"id", 2u}, {"status", "deadline"},
             {"attempts", 3u}});

  const Trace trace = parse(sink.jsonl());
  const auto report = aft::tools::compute_slo(trace);
  EXPECT_EQ(report.ok.count, 1u);
  EXPECT_EQ(report.ok.min, 8u);
  EXPECT_EQ(report.ok.max, 8u);
  EXPECT_EQ(report.fail.count, 1u);
  EXPECT_EQ(report.fail.max, 30u);
  EXPECT_EQ(report.attempts.count, 2u);
  EXPECT_EQ(report.attempts.max, 3u);
  ASSERT_TRUE(report.has_worst);
  EXPECT_EQ(report.worst_seq, 3u);  // chain B's done is the slowest

  const std::string rendered = aft::tools::render_slo(trace);
  EXPECT_NE(rendered.find("rpc call latency"), std::string::npos);
  EXPECT_NE(rendered.find("worst chain (done seq 3)"), std::string::npos);
  // Chain B's cause link is cut, so the drill-down starts at the done
  // record itself (the chain walk has nothing earlier to show).
  EXPECT_NE(rendered.find("net.rpc/done"), std::string::npos);
}

TEST(TraceAnalysisTest, LatencyQuantilesExposedPerStage) {
  TraceSink sink;
  for (std::uint64_t i = 0; i < 100; ++i) {
    aft::obs::set_obs_time(i * 100);
    sink.set_cause(sink.emit("hw.inject", "seu", {{"addr", i}}));
    aft::obs::set_obs_time(i * 100 + 1 + i % 10);  // detect latencies 1..10
    sink.emit("mem.ecc", "corrected", {{"addr", i}});
    sink.set_cause(aft::obs::kNoEvent);
  }
  const auto report = aft::tools::compute_latency(parse(sink.jsonl()));
  EXPECT_EQ(report.inject_to_detect.count, 100u);
  EXPECT_EQ(report.inject_to_detect.p50, 5u);
  EXPECT_EQ(report.inject_to_detect.p99, 10u);
  EXPECT_EQ(report.inject_to_detect.p999, 10u);
}

TEST(TraceAnalysisTest, EmptyTracesRenderHintsNotSilence) {
  // A trace with no matching chains used to render as zero-row noise (or
  // nothing at all); each command now says what it looked for.
  TraceSink sink;
  sink.emit("c", "e");  // non-empty trace, but no chains of any kind
  const Trace trace = parse(sink.jsonl());
  EXPECT_EQ(aft::tools::render_latency(trace),
            "no inject->detect chains found\n");
  EXPECT_EQ(aft::tools::render_slo(trace), "no rpc call chains found\n");
  EXPECT_EQ(aft::tools::render_timeline(Trace{}),
            "no events in trace (nothing to window)\n");
}

TEST(TraceAnalysisTest, TimelineWindowsEventCensus) {
  TraceSink sink;
  aft::obs::set_obs_time(0);
  sink.emit("hw.inject", "seu", {{"addr", 1u}});
  aft::obs::set_obs_time(5);
  sink.emit("mem.ecc", "corrected", {{"addr", 1u}});
  aft::obs::set_obs_time(25);
  sink.emit("c", "quiet");

  const std::string out =
      aft::tools::render_timeline(parse(sink.jsonl()), /*window_ticks=*/10);
  EXPECT_NE(out.find("timeline (window=10 ticks, 2 non-empty windows)"),
            std::string::npos);
  EXPECT_NE(out.find("window-start  events  inject  detect  repair"),
            std::string::npos);
  // Window 0 holds the inject + the detect; window 2 the quiet event.
  EXPECT_NE(out.find("\n0             2       1       1       0"),
            std::string::npos);
  EXPECT_NE(out.find("\n20            1       0       0       0"),
            std::string::npos);
}

#endif  // !AFT_OBS_DISABLED

}  // namespace
