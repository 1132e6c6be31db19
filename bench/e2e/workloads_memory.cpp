// memory_ecc: the M1 access method (SEC-DED ECC + patrol scrub) under a
// heavy soft-error rate.  Only mem and hw work here: per-word encode/decode
// on the demand path, the bit-sliced batch kernel on the scrub path.
//
// One demand access per tick, after that tick's injection and any scrub
// pass due: 80% reads of a random word, 20% writes.  A shadow copy of every
// word checks each successful read; a read reported uncorrectable or
// unavailable re-seeds the word, as a client rewriting lost data would.
#include <memory>
#include <vector>

#include "e2e.hpp"
#include "hw/fault_injector.hpp"
#include "hw/memory_chip.hpp"
#include "mem/method_ecc.hpp"
#include "mem/scrubber.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace aft::e2e {
namespace {

constexpr std::size_t kWords = 65536;
constexpr std::size_t kScrubWords = 256;
constexpr sim::SimTime kScrubPeriod = 64;
constexpr double kSeuRate = 0.05;
constexpr double kWriteShare = 0.2;
constexpr std::uint64_t kTicks = 5'000'000;
constexpr std::uint64_t kSmokeTicks = 100'000;
constexpr std::uint64_t kBaseSeed = 610000;

hw::FaultProfile profile() {
  hw::FaultProfile p;
  p.seu_rate = kSeuRate;
  return p;
}

struct MemoryState final : State {
  MemoryState(std::uint64_t seed, bool smoke)
      : ticks(smoke ? kSmokeTicks : kTicks),
        chip(kWords),
        method(chip, kScrubWords),
        injector(chip, profile(), seed),
        scrubber(sim, method, kScrubPeriod),
        rng(seed + 1),
        shadow(kWords) {
    for (std::size_t a = 0; a < kWords; ++a) {
      shadow[a] = rng.next();
      method.write(a, shadow[a]);
    }
    scrubber.start();
  }

  void run(Spans* spans) {
    for (sim::SimTime t = 1; t <= ticks; ++t) {
      timed(spans, Span::kInject, [&] { return injector.tick(); });
      sim.run_until(t);
      const auto addr = static_cast<std::size_t>(rng.uniform_int(0, kWords - 1));
      if (rng.bernoulli(kWriteShare)) {
        const std::uint64_t value = rng.next();
        shadow[addr] = value;
        timed(spans, Span::kMemWrite, [&] { return method.write(addr, value); });
        ++writes;
        continue;
      }
      const mem::ReadResult res =
          timed(spans, Span::kMemRead, [&] { return method.read(addr); });
      ++reads;
      if (res.ok()) {
        if (res.value != shadow[addr]) ++silent;
        continue;
      }
      shadow[addr] = rng.next();
      method.write(addr, shadow[addr]);
      ++reseeds;
    }
  }

  std::uint64_t ticks;
  sim::Simulator sim;
  hw::MemoryChip chip;
  mem::EccScrubAccess method;
  hw::FaultInjector injector;
  mem::ScrubberDaemon scrubber;
  util::Xoshiro256 rng;
  std::vector<std::uint64_t> shadow;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t reseeds = 0;
  std::uint64_t silent = 0;  ///< successful reads whose value was wrong
};

RepResult validate(State& state, std::uint64_t, Checks& checks) {
  const auto& s = static_cast<const MemoryState&>(state);
  const mem::MethodStats& st = s.method.stats();
  RepResult r;
  r.ops = s.reads + s.writes;
  r.not_ok = st.data_losses + s.silent;
  Counts& c = r.counts;
  c["mem.ticks"] = s.ticks;
  c["mem.reads"] = s.reads;
  c["mem.writes"] = s.writes;
  c["mem.reseeds"] = s.reseeds;
  c["mem.corrected"] = st.corrected_singles;
  c["mem.uncorrectable"] = st.double_detected;
  c["mem.data_losses"] = st.data_losses;
  c["mem.silent_corruptions"] = s.silent;
  c["mem.scrub_passes"] = s.scrubber.passes();
  c["mem.scrub_words"] = s.scrubber.passes() * kScrubWords;
  c["hw.seu"] = s.injector.log().seu;
  c["hw.chip_reads"] = s.chip.reads();
  c["hw.chip_writes"] = s.chip.writes();
  c["sim.events"] = s.sim.executed();

  checks.expect(s.reads + s.writes == s.ticks, "reads + writes == ticks");
  checks.expect(st.reads == s.reads, "method reads == demand reads");
  checks.expect(st.writes == kWords + s.writes + s.reseeds,
                "method writes == fill + demand writes + re-seeds");
  checks.expect(st.data_losses == s.reseeds,
                "every uncorrectable or unavailable read was re-seeded");
  checks.expect(s.scrubber.passes() == s.ticks / kScrubPeriod,
                "one scrub pass every 64 ticks");
  return r;
}

}  // namespace

const Workload& memory_workload() {
  static const Workload kMemory{
      "memory_ecc",
      [](std::uint64_t seed, bool smoke) -> std::unique_ptr<State> {
        return std::make_unique<MemoryState>(derive_seed(kBaseSeed, seed),
                                             smoke);
      },
      [](State& s, Spans* spans) { static_cast<MemoryState&>(s).run(spans); },
      validate};
  return kMemory;
}

}  // namespace aft::e2e
