// aft_e2e — the end-to-end benchmark binary.
//
//   aft_e2e --workload <name> --seconds S [--seed N] [--traced]
//           [--spans FILE]
//   aft_e2e --smoke
//
// One workload per process, single threaded.  The default (e2e) pass runs
// one warm-up repetition and then timed repetitions until S seconds have
// passed (run.py passes BENCHMARK.json's run_seconds, so the run length has
// one source); every repetition builds fresh objects from the seed, and its
// outputs are checked before any number is printed.  --traced runs the
// same workload and seed with untimed and span-timed repetitions
// alternating, one layer-ladder round after each pair, and reports the
// per-layer metrics.
// --smoke runs every workload through both passes at tiny sizes.
//
// The last stdout line is one JSON object with the metrics, the checks that
// failed, and the deterministic counters with their digest.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "mem/ecc.hpp"

namespace aft::e2e {
namespace {

constexpr std::size_t kMinReps = 5;
constexpr std::size_t kMaxReps = 400;
constexpr std::size_t kMinPairs = 3;
/// Timed ladder rounds the traced pass takes at least (after a warm-up).
constexpr std::size_t kMinLadderRounds = 7;
/// Set-up sampling between repetitions: samples for about kSetupSeconds
/// each time, and at least kMinSetupSamples over the run.  One sample is
/// back-to-back set-ups until they add up to kSetupSampleSeconds (at most
/// kSetupBatch of them), so a set-up of a few microseconds is timed over
/// milliseconds and one disturbed call moves a sample little.
constexpr double kSetupSeconds = 0.01;
constexpr double kSetupSampleSeconds = 0.002;
constexpr std::size_t kSetupBatch = 10000;
constexpr std::size_t kMinSetupSamples = 31;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1;  ///< required outside --smoke
  bool traced = false;
  bool smoke = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "aft_e2e: %s\n"
               "usage: aft_e2e --workload NAME --seconds S [--seed N] "
               "[--traced] [--spans FILE]\n"
               "       aft_e2e --smoke\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(std::string("not a non-negative integer: ") + text);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = parse_u64(value());
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(value()));
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--spans") {
      o.spans_path = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!o.smoke && o.workload.empty()) usage("--workload is required");
  if (!o.smoke && o.seconds < 0) usage("--seconds is required");
  return o;
}

std::vector<const Workload*> workloads() {
  std::vector<const Workload*> all;
  for (const Workload& w : traffic_workloads()) all.push_back(&w);
  all.push_back(&organ_workload());
  all.push_back(&memory_workload());
  return all;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

/// Python's statistics.quantiles(v, n=4) (the default 'exclusive' method),
/// so the benchmark, run.py and compare.py agree on every quartile.
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  if (ld == 0) return {};
  if (ld == 1) return {v[0], v[0], v[0]};
  double q[3];
  const long long m = ld + 1;
  for (long long i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * (4 - delta) +
                v[static_cast<std::size_t>(j)] * delta) /
               4;
  }
  return {q[0], q[1], q[2]};
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 1;
};

Metric exact(std::string name, double value, std::string unit,
             std::size_t n = 1) {
  return Metric{std::move(name), value, std::move(unit), value, value, n};
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// VmHWM of this process in MB.  Mostly file-backed pages of the binary and
/// its libraries, which vary by a few percent from run to run, so it is
/// printed for reference while peak_heap_mb is the gated memory metric.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024.0 / 1e6;
    }
  }
  return 0.0;
}

/// Seconds since `start`.
double since(Clock::time_point start) {
  return ns_between(start, Clock::now()) / 1e9;
}

struct Rep {
  double run_ns = 0;
  AllocTally alloc;
  std::uint64_t heap_bytes = 0;  ///< peak heap the repetition added
  RepResult result;
};

/// Runs repetitions of one workload and accumulates their checks.
class Bench {
 public:
  Bench(const Workload& w, const Options& o) : w_(w), o_(o) {}

  Rep rep(Spans* spans) {
    Rep r;
    const std::uint64_t heap_base = heap_live_bytes();
    heap_peak_reset();
    std::unique_ptr<State> state = w_.setup(o_.seed, o_.smoke);
    alloc_begin();
    const Clock::time_point t0 = Clock::now();
    w_.run(*state, spans);
    const Clock::time_point t1 = Clock::now();
    r.alloc = alloc_end();
    r.run_ns = ns_between(t0, t1);
    Checks checks;
    r.result = w_.validate(*state, o_.seed, checks);
    r.heap_bytes = heap_peak_bytes() - heap_base;
    state.reset();
    for (const std::string& f : checks.failures()) failures_.insert(f);
    if (!first_) {
      first_ = r.result.counts;
    } else if (r.result.counts != *first_) {
      failures_.insert("counters differ between repetitions of one seed");
    }
    if (spans == nullptr) rep_s_.push_back(r.run_ns / 1e9);
    attempted_ += r.result.ops;
    unaccounted_ += r.result.unaccounted;
    return r;
  }

  /// Set-up samples taken back to back for about `seconds`, at least `min`
  /// of them.  A sample is the mean time of a batch of set-ups (construct,
  /// start, fill; each destroyed untimed) worth kSetupSampleSeconds.  Taken
  /// between repetitions, so a burst of machine noise reaches only a few.
  void setup_samples(double seconds, std::size_t min) {
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < min || since(start) < seconds; ++k) {
      double ns = 0;
      std::size_t n = 0;
      while (n < kSetupBatch && ns < kSetupSampleSeconds * 1e9) {
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<State> state = w_.setup(o_.seed, o_.smoke);
        ns += ns_between(t0, Clock::now());
        ++n;
      }
      setup_ns_.push_back(ns / static_cast<double>(n));
    }
  }

  void fail(const std::string& what) { failures_.insert(what); }

  [[nodiscard]] const std::vector<double>& setup_ns() const { return setup_ns_; }
  [[nodiscard]] const Counts& counts() const { return *first_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t unaccounted() const { return unaccounted_; }
  [[nodiscard]] const std::vector<double>& rep_s() const { return rep_s_; }
  [[nodiscard]] const std::set<std::string>& failures() const {
    return failures_;
  }

 private:
  const Workload& w_;
  const Options& o_;
  std::vector<double> setup_ns_;
  std::optional<Counts> first_;
  std::set<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t unaccounted_ = 0;
  std::vector<double> rep_s_;  ///< run time of every untraced repetition
};

std::vector<Metric> e2e_pass(Bench& bench, const Options& o) {
  bench.rep(nullptr);  // warm-up: caches, allocator pools, lazy statics
  const std::size_t min_reps = o.smoke ? 2 : kMinReps;
  std::vector<double> walls;
  std::vector<double> ops_per_s;
  RepResult outcome;
  std::uint64_t heap = 0;
  const Clock::time_point start = Clock::now();
  while (walls.size() < kMaxReps &&
         (walls.size() < min_reps || since(start) < o.seconds)) {
    const Rep r = bench.rep(nullptr);
    walls.push_back(r.run_ns);
    outcome = r.result;
    heap = std::max(heap, r.heap_bytes);
    ops_per_s.push_back(
        ratio(static_cast<double>(outcome.ops), r.run_ns / 1e9));
    bench.setup_samples(kSetupSeconds, 1);
  }
  bench.setup_samples(0, kMinSetupSamples - std::min(kMinSetupSamples,
                                                     bench.setup_ns().size()));
  const auto ops = static_cast<double>(outcome.ops);
  const auto refused = static_cast<double>(outcome.refused);

  std::vector<Metric> m;
  // Lower-quartile rep time: the least disturbed runs on a shared VM.
  const Quartiles wall_q = quartiles(walls);
  const Quartiles ops_q = quartiles(ops_per_s);
  m.push_back(Metric{"ops_per_s", ratio(ops, wall_q.q1 / 1e9), "op/s",
                     ops_q.q1, ops_q.q3, walls.size()});
  std::vector<double> setup_s;
  for (const double ns : bench.setup_ns()) setup_s.push_back(ns / 1e9);
  const Quartiles setup_q = quartiles(setup_s);
  m.push_back(Metric{"setup_s", median(setup_s), "s", setup_q.q1, setup_q.q3,
                     setup_s.size()});
  m.push_back(exact("peak_heap_mb", static_cast<double>(heap) / 1e6, "MB",
                    walls.size()));
  m.push_back(exact("vm_hwm_mb", vm_hwm_mb(), "MB"));
  // Deliberate refusals and wrong results are separate metrics: the first
  // varies with the seed by about 1% (overload arrivals), the second by
  // 1e-5, so each gets a bound its own spread allows.
  m.push_back(exact("ok_frac",
                    1.0 - ratio(static_cast<double>(outcome.not_ok),
                                ops - refused),
                    "ratio", walls.size()));
  m.push_back(exact("admitted_frac", 1.0 - ratio(refused, ops), "ratio",
                    walls.size()));
  return m;
}

std::vector<Metric> traced_pass(Bench& bench, const Options& o) {
  bench.rep(nullptr);  // warm-up
  const std::size_t min_pairs = o.smoke ? 1 : kMinPairs;
  Spans spans;
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
  std::vector<double> allocs;
  std::vector<double> alloc_bytes;
  std::uint64_t ops = 0;
  const auto pair = [&] {
    const Rep plain = bench.rep(nullptr);
    plain_ns.push_back(plain.run_ns);
    allocs.push_back(static_cast<double>(plain.alloc.calls));
    alloc_bytes.push_back(static_cast<double>(plain.alloc.bytes));
    ops = plain.result.ops;
    spans.next_rep();
    traced_ns.push_back(bench.rep(&spans).run_ns);
  };
  const Clock::time_point start = Clock::now();
  pair();

  const Counts& c = bench.counts();
  const auto get = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto per_op = [&](const char* key) {
    return ratio(get(key), static_cast<double>(ops));
  };

  // The ladder reproduces the shape the first pair recorded, and its rounds
  // alternate with the pairs, so rungs and repetitions share the machine's
  // slow and fast spells.
  LadderShape shape;
  shape.depth = spans.mean_depth() > 0 ? spans.mean_depth() : 1.0;
  const double mean_arity = ratio(get("vote.ballots"), get("vote.rounds"));
  shape.arity = mean_arity > 0 ? static_cast<std::size_t>(mean_arity + 0.5) : 3;
  shape.pool = c.count("cluster.pool") != 0 ? c.at("cluster.pool") : 5;
  const auto uses = [&](const char* key, RungGroup group) {
    return get(key) > 0 ? static_cast<unsigned>(group) : 0u;
  };
  shape.uses = uses("sim.events", kRungSim) | uses("net.frames", kRungNet) |
               uses("vote.rounds", kRungVote) | uses("obs.records", kRungObs) |
               uses("mem.ticks", kRungMem);
  shape.smoke = o.smoke;
  std::fprintf(stderr,
               "%s ladder shape: depth %.1f arity %zu pool %zu uses %#x\n",
               o.workload.c_str(), shape.depth, shape.arity, shape.pool,
               shape.uses);
  Ladder ladder(shape);
  ladder.round();  // warm-up round
  const std::size_t min_rounds = o.smoke ? 1 : kMinLadderRounds;
  for (;;) {
    const bool more_pairs =
        plain_ns.size() < kMaxReps &&
        (plain_ns.size() < min_pairs || since(start) < o.seconds);
    if (!more_pairs && ladder.rounds() >= min_rounds) break;
    if (more_pairs) pair();
    ladder.round();
  }

  LayerTimes t = ladder.self_times();
  for (const auto& [name, ns] : t.all()) {
    if (ns < 0) bench.fail(std::string("ladder self time < 0: ") + name);
  }
  // In-situ spans replace the isolated rung where the workload made the
  // call itself.
  if (spans.count(Span::kPublish) > 0) t.bus_publish = spans.mean_ns(Span::kPublish);
  if (spans.count(Span::kFlush) > 0) {
    t.obs_flush = ratio(spans.mean_ns(Span::kFlush), get("obs.records"));
  }
  if (spans.count(Span::kMemRead) > 0) t.mem_read = spans.mean_ns(Span::kMemRead);
  if (spans.count(Span::kMemWrite) > 0) t.mem_write = spans.mean_ns(Span::kMemWrite);
  if (spans.count(Span::kInject) > 0) t.inject_tick = spans.mean_ns(Span::kInject);
  if (!o.spans_path.empty()) spans.write_tsv(o.spans_path);

  const double e2e_ns_per_op = ratio(median(plain_ns), static_cast<double>(ops));
  const double attributed =
      per_op("sim.events") * t.sim_event + per_op("net.frames") * t.link_frame +
      per_op("net.heartbeats") * t.beat + per_op("net.rpc.calls") * t.rpc_call +
      per_op("cluster.rounds") * t.cluster_round +
      per_op("vote.rounds") * (t.vote_round + t.observe) +
      per_op("load.requests") * t.load_request +
      per_op("arch.bus.published") * t.bus_publish +
      per_op("obs.records") * (t.obs_emit + t.obs_flush) +
      per_op("mem.reads") * t.mem_read +
      (per_op("mem.writes") + per_op("mem.reseeds")) * t.mem_write +
      per_op("mem.scrub_words") * t.scrub_word +
      per_op("mem.ticks") * t.inject_tick;

  const std::size_t n = plain_ns.size();
  std::vector<Metric> m;
  const auto count = [&](const char* name, double v, const char* unit) {
    m.push_back(exact(name, v, unit, n));
  };
  count("sim.events_per_op", per_op("sim.events"), "events/op");
  count("net.frames_per_op", per_op("net.frames"), "frames/op");
  count("net.rpc.calls_per_op", per_op("net.rpc.calls"), "calls/op");
  count("net.heartbeat_share", ratio(get("net.heartbeats"), get("net.frames")),
        "ratio");
  count("net.rpc.attempts_per_call",
        ratio(get("net.rpc.attempts"), get("net.rpc.calls")), "attempts/call");
  count("net.rpc.stale_per_call",
        ratio(get("net.rpc.stale"), get("net.rpc.calls")), "stale/call");
  count("net.rpc.ok_frac", ratio(get("net.rpc.ok"), get("net.rpc.calls")),
        "ratio");
  count("net.link.drop_frac",
        ratio(get("net.link.dropped"),
              get("net.link.sent") + get("net.link.duplicated")),
        "ratio");
  count("cluster.rounds_per_op", per_op("cluster.rounds"), "rounds/op");
  count("cluster.shed_frac",
        ratio(get("cluster.shed"), get("cluster.admitted") + get("cluster.shed")),
        "ratio");
  count("cluster.queue_peak", get("cluster.queue_peak"), "count");
  count("cluster.evictions", get("cluster.evictions"), "count");
  count("cluster.reinstatements", get("cluster.reinstatements"), "count");
  count("cluster.rpc_failures", get("cluster.rpc_failures"), "count");
  count("vote.ballots_per_round", mean_arity, "ballots/round");
  count("autonomic.raises", get("autonomic.raises"), "count");
  count("autonomic.lowers", get("autonomic.lowers"), "count");
  count("autonomic.r3_fraction",
        ratio(get("autonomic.rounds_at_min"), get("autonomic.rounds_observed")),
        "ratio");
  count("load.p50_ticks", get("load.overload.p50_ticks"), "ticks");
  count("load.p999_ticks", get("load.overload.p999_ticks"), "ticks");
  count("load.peak_sessions", get("load.peak_sessions"), "count");
  count("obs.records_per_op", per_op("obs.records"), "records/op");
  count("obs.bytes_per_op", per_op("obs.bytes_binary"), "B/op");
  count("obs.dropped", get("obs.dropped"), "count");
  count("mem.scrub_words_per_op", per_op("mem.scrub_words"), "words/op");
  count("mem.corrected_per_kread",
        1000.0 * ratio(get("mem.corrected"), get("mem.reads")), "1/kread");
  count("mem.silent_per_kread",
        1000.0 * ratio(get("mem.silent_corruptions"), get("mem.reads")),
        "1/kread");
  count("util.alloc_per_op", ratio(median(allocs), static_cast<double>(ops)),
        "allocs/op");
  count("util.alloc_bytes_per_op",
        ratio(median(alloc_bytes), static_cast<double>(ops)), "B/op");
  for (const auto& [name, ns] : t.all()) m.push_back(exact(name, ns, "ns"));
  m.push_back(exact("attrib.coverage", ratio(attributed, e2e_ns_per_op),
                    "ratio"));
  m.push_back(exact("bench.span_overhead",
                    ratio(median(traced_ns), median(plain_ns)), "ratio", n));
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// FNV-1a over "name=value\n" lines of the ordered counters.
std::uint64_t digest(const Counts& counts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, value] : counts) {
    const std::string line = name + "=" + std::to_string(value) + "\n";
    for (const char ch : line) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const char* ecc_backend() {
  return mem::ecc_batch_backend() == mem::EccBackend::kAvx2 ? "avx2"
                                                            : "portable";
}

/// Prints one line per metric, the digest and any failed check, then the
/// result object as the last line.  Returns the process exit code.
int report(const Workload& w, const Options& o, const Bench& bench,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s q1=%s q3=%s n=%zu\n", w.name, m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str(), num(m.q1).c_str(),
                num(m.q3).c_str(), m.n);
  }
  const Counts& counts = bench.counts();
  char dig[32];
  std::snprintf(dig, sizeof dig, "%016" PRIx64, digest(counts));
  std::printf("%s digest %s over %zu counters\n", w.name, dig, counts.size());
  for (const std::string& f : bench.failures()) {
    std::printf("%s CHECK FAILED: %s\n", w.name, f.c_str());
  }
  const bool correct = bench.failures().empty() && bench.unaccounted() == 0;

  std::string out = "{\"workload\": \"" + std::string(w.name) + "\", ";
  out += "\"seed\": " + std::to_string(o.seed) + ", ";
  out += std::string("\"traced\": ") + (o.traced ? "true" : "false") + ", ";
  out += std::string("\"correct\": ") + (correct ? "true" : "false") + ", ";
  out += "\"attempted\": " + std::to_string(bench.attempted()) + ", ";
  out += "\"failed\": " + std::to_string(bench.unaccounted()) + ", ";
  out += "\"checks_failed\": [";
  bool first = true;
  for (const std::string& f : bench.failures()) {
    out += (first ? "\"" : ", \"") + json_escape(f) + "\"";
    first = false;
  }
  out += "], \"rep_s\": [";
  for (std::size_t i = 0; i < bench.rep_s().size(); ++i) {
    out += (i == 0 ? "" : ", ") + num(bench.rep_s()[i]);
  }
  out += "], \"compiler\": \"gcc " + json_escape(__VERSION__) + "\", ";
  out += std::string("\"ecc_backend\": \"") + ecc_backend() + "\", ";
  out += "\"digest\": \"" + std::string(dig) + "\", \"counts\": {";
  first = true;
  for (const auto& [name, value] : counts) {
    out += (first ? "\"" : ", \"") + name + "\": " + std::to_string(value);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const Metric& m : metrics) {
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           num(m.value) + ", \"unit\": \"" + m.unit + "\", \"q1\": " +
           num(m.q1) + ", \"q3\": " + num(m.q3) +
           ", \"n\": " + std::to_string(m.n) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_one(const Workload& w, const Options& o) {
  Bench bench(w, o);
  const std::vector<Metric> metrics =
      o.traced ? traced_pass(bench, o) : e2e_pass(bench, o);
  return report(w, o, bench, metrics);
}

/// Every workload through both passes at tiny sizes, every check on.
int smoke(Options o) {
  int worst = 0;
  for (const Workload* w : workloads()) {
    for (const bool traced : {false, true}) {
      o.traced = traced;
      o.seconds = 0;
      const Clock::time_point t0 = Clock::now();
      const int rc = run_one(*w, o);
      std::printf("smoke %s %s: %s (%.2f s)\n", w->name,
                  traced ? "traced" : "e2e", rc == 0 ? "PASS" : "FAIL",
                  since(t0));
      worst = std::max(worst, rc);
    }
  }
  return worst;
}

}  // namespace
}  // namespace aft::e2e

int main(int argc, char** argv) {
  using namespace aft::e2e;
  const Options o = parse(argc, argv);
  if (o.smoke) return smoke(o);
  for (const Workload* w : workloads()) {
    if (o.workload == w->name) return run_one(*w, o);
  }
  usage("unknown workload " + o.workload);
}
