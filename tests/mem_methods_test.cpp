// Tests for the memory access methods M0..M4 of Sect. 3.1: per-method
// behaviour under the fault classes each is designed (or not designed) to
// tolerate, plus statistical adequacy campaigns (method Mi under profile
// fj preserves data integrity iff Mi tolerates fj).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hw/fault_injector.hpp"
#include "hw/memory_chip.hpp"
#include "mem/ecc.hpp"
#include "mem/method_ecc.hpp"
#include "mem/method_mirror.hpp"
#include "mem/method_raw.hpp"
#include "mem/method_remap.hpp"
#include "mem/method_tmr.hpp"
#include "mem/scrubber.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace aft::mem;
using aft::hw::ChipState;
using aft::hw::MemoryChip;
using aft::hw::Word72;
using aft::util::Xoshiro256;

// --- M0 raw ------------------------------------------------------------------

TEST(RawAccessTest, RoundTrip) {
  MemoryChip chip(16);
  RawAccess m(chip);
  EXPECT_TRUE(m.write(3, 0xABCD));
  const ReadResult r = m.read(3);
  EXPECT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.value, 0xABCDu);
}

TEST(RawAccessTest, SilentlyReturnsCorruptedData) {
  MemoryChip chip(16);
  RawAccess m(chip);
  m.write(0, 0);
  chip.inject_bit_flip(0, 5);
  const ReadResult r = m.read(0);
  EXPECT_EQ(r.status, ReadStatus::kOk);   // no detection at all
  EXPECT_EQ(r.value, 32u);                // wrong data, silently
}

TEST(RawAccessTest, UnavailableDevice) {
  MemoryChip chip(16);
  RawAccess m(chip);
  chip.inject_latch_up();
  EXPECT_EQ(m.read(0).status, ReadStatus::kUnavailable);
  EXPECT_FALSE(m.write(0, 1));
  EXPECT_EQ(m.stats().data_losses, 1u);
}

TEST(RawAccessTest, ToleratesOnlyF0) {
  MemoryChip chip(4);
  RawAccess m(chip);
  EXPECT_TRUE(m.tolerates(FailureSemantics::kF0Stable));
  EXPECT_FALSE(m.tolerates(FailureSemantics::kF1TransientCmos));
  EXPECT_FALSE(m.tolerates(FailureSemantics::kF4SdramSelSeu));
}

// --- M1 ECC + scrub -------------------------------------------------------------

TEST(EccScrubTest, CorrectsSingleBitFlip) {
  MemoryChip chip(16);
  EccScrubAccess m(chip);
  m.write(2, 0xFEED);
  chip.inject_bit_flip(2, 7);
  const ReadResult r = m.read(2);
  EXPECT_EQ(r.status, ReadStatus::kCorrected);
  EXPECT_EQ(r.value, 0xFEEDu);
  // Demand scrubbing repaired the stored word: next read is clean.
  EXPECT_EQ(m.read(2).status, ReadStatus::kOk);
  EXPECT_EQ(m.stats().corrected_singles, 1u);
}

TEST(EccScrubTest, DetectsDoubleBitFlip) {
  MemoryChip chip(16);
  EccScrubAccess m(chip);
  m.write(0, 0x1111);
  chip.inject_bit_flip(0, 3);
  chip.inject_bit_flip(0, 40);
  const ReadResult r = m.read(0);
  EXPECT_EQ(r.status, ReadStatus::kUncorrectable);
  EXPECT_EQ(m.stats().double_detected, 1u);
  EXPECT_EQ(m.stats().data_losses, 1u);
}

TEST(EccScrubTest, ScrubRepairsLatentFlipsBeforeTheyAccumulate) {
  MemoryChip chip(8);
  EccScrubAccess m(chip, /*words_per_scrub_step=*/8);
  for (std::size_t a = 0; a < 8; ++a) m.write(a, a * 1000);
  for (std::size_t a = 0; a < 8; ++a) chip.inject_bit_flip(a, 11);
  m.scrub_step();  // walks all 8 words
  EXPECT_EQ(m.stats().corrected_singles, 8u);
  // A second flip in each word would have been fatal without the scrub.
  for (std::size_t a = 0; a < 8; ++a) chip.inject_bit_flip(a, 30);
  for (std::size_t a = 0; a < 8; ++a) {
    const ReadResult r = m.read(a);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.value, a * 1000);
  }
}

TEST(EccScrubTest, UnavailableDuringScrubIsHarmless) {
  MemoryChip chip(8);
  EccScrubAccess m(chip);
  chip.inject_sefi();
  m.scrub_step();  // must not crash or spin
  EXPECT_EQ(m.read(0).status, ReadStatus::kUnavailable);
}

// The burst scrub (read_block, a sliced syndrome check, the scalar decoder
// on the flagged words) must act exactly like the plain per-word walk below:
// same chip contents, same stats, same trace records in the same order.
struct PerWordScrub {
  MemoryChip& chip;
  std::size_t step;
  std::size_t cursor = 0;
  MethodStats stats{};

  void scrub_step() {
    const std::size_t words = chip.size_words();
    for (std::size_t k = 0; k < step; ++k) {
      const aft::hw::DeviceRead dev = chip.read(cursor);
      if (!dev.available) return;
      const EccDecode dec = ecc_decode(dev.word);
      if (dec.status == EccStatus::kCorrectedSingle) {
        ++stats.corrected_singles;
        chip.write(cursor, dec.repaired);
        AFT_TRACE("M1-ecc-scrub", "corrected", {{"addr", cursor}, {"origin", "scrub"}});
      }
      cursor = cursor + 1 == words ? 0 : cursor + 1;
    }
  }
};

void expect_same_stats(const MethodStats& got, const MethodStats& want,
                       const std::string& what) {
  EXPECT_EQ(got.reads, want.reads) << what;
  EXPECT_EQ(got.writes, want.writes) << what;
  EXPECT_EQ(got.corrected_singles, want.corrected_singles) << what;
  EXPECT_EQ(got.double_detected, want.double_detected) << what;
  EXPECT_EQ(got.recoveries, want.recoveries) << what;
  EXPECT_EQ(got.remaps, want.remaps) << what;
  EXPECT_EQ(got.rebuilds, want.rebuilds) << what;
  EXPECT_EQ(got.power_cycles, want.power_cycles) << what;
  EXPECT_EQ(got.data_losses, want.data_losses) << what;
}

TEST(EccScrubTest, BurstScrubMatchesThePerWordWalk) {
  // 1000 words is no multiple of the 64- or 256-word kernel blocks, so
  // bursts straddle superblocks and the chip's end at every step size.
  constexpr std::size_t kWords = 1000;
  for (const std::size_t step : {std::size_t{1}, std::size_t{63},
                                 std::size_t{257}, std::size_t{700}}) {
    const std::string what = "step " + std::to_string(step);
    MemoryChip chip(kWords);
    MemoryChip ref_chip(kWords);
    EccScrubAccess m(chip, step);
    PerWordScrub ref{ref_chip, step};
    Xoshiro256 rng(4242 + step);
    for (std::size_t a = 0; a < kWords; ++a) {
      const Word72 w = ecc_encode(rng.next());
      chip.write(a, w);
      ref_chip.write(a, w);
    }
    const auto flip = [&](std::size_t addr, unsigned bit) {
      chip.inject_bit_flip(addr, bit);
      ref_chip.inject_bit_flip(addr, bit);
    };
    // A stuck-at cell holding the opposite of its stored bit: every pass
    // corrects the word, and the write-back never sticks.
    const bool stored = aft::hw::get_bit(chip.read(500).word, 13);
    chip.inject_stuck_at(500, 13, !stored);
    ref_chip.inject_stuck_at(500, 13, !stored);
    // Every word of the first burst flipped, and then some.
    for (std::size_t a = 0; a < 300; ++a) flip(a, static_cast<unsigned>(a % 72));

    aft::obs::TraceSink sink;
    aft::obs::TraceSink ref_sink;
    for (int round = 0; round < 6; ++round) {
      for (int k = 0; k < 40; ++k) {
        const auto addr = static_cast<std::size_t>(rng.uniform_int(0, kWords - 1));
        const auto b1 = static_cast<unsigned>(rng.uniform_int(0, 71));
        flip(addr, b1);
        if (k % 4 == 0) {  // a double flip, which the scrub leaves alone
          flip(addr, (b1 + 1 + static_cast<unsigned>(rng.uniform_int(0, 70))) % 72);
        }
      }
      // Enough steps for at least one full pass at every step size.
      const std::size_t steps = kWords / step + 2;
      for (std::size_t k = 0; k < steps; ++k) {
        {
          aft::obs::ScopedObs obs(&sink, nullptr);
          m.scrub_step();
        }
        aft::obs::ScopedObs obs(&ref_sink, nullptr);
        ref.scrub_step();
      }
      expect_same_stats(m.stats(), ref.stats, what);
      for (std::size_t a = 0; a < kWords; ++a) {
        ASSERT_EQ(chip.read(a).word, ref_chip.read(a).word) << what << " addr " << a;
      }
    }
    EXPECT_GT(ref.stats.corrected_singles, 300u) << what;
    EXPECT_EQ(sink.jsonl(), ref_sink.jsonl()) << what;
  }
}

// --- M2 ECC + remap ---------------------------------------------------------------

TEST(EccRemapTest, SpareFractionValidation) {
  MemoryChip chip(16);
  EXPECT_THROW(EccRemapAccess(chip, 0.0), std::invalid_argument);
  EXPECT_THROW(EccRemapAccess(chip, 1.0), std::invalid_argument);
}

TEST(EccRemapTest, CapacityExcludesSpares) {
  MemoryChip chip(64);
  EccRemapAccess m(chip, 0.25);
  EXPECT_EQ(m.capacity_words(), 48u);
  EXPECT_EQ(m.spares_left(), 16u);
  EXPECT_THROW((void)m.read(48), std::out_of_range);
}

TEST(EccRemapTest, StuckCellGetsRetiredOnWrite) {
  MemoryChip chip(64);
  EccRemapAccess m(chip, 0.125);
  // Make logical word 5's physical cell permanently stuck.
  chip.inject_stuck_at(5, 20, true);
  // Write a value whose codeword has bit 20 clear -> the write will not
  // stick -> remap must kick in and the read must still return the value.
  m.write(5, 0);
  EXPECT_EQ(m.stats().remaps, 1u);
  const ReadResult r = m.read(5);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 0u);
}

TEST(EccRemapTest, StuckCellDiscoveredOnReadIsRetired) {
  MemoryChip chip(64);
  EccRemapAccess m(chip, 0.125);
  m.write(7, 0);  // codeword all-zero
  chip.inject_stuck_at(7, 33, true);  // now bit 33 reads as 1: single error
  const ReadResult r = m.read(7);
  EXPECT_EQ(r.status, ReadStatus::kCorrected);
  EXPECT_EQ(r.value, 0u);
  EXPECT_EQ(m.stats().remaps, 1u);
  // After retirement the stored copy is on a healthy spare: clean reads.
  EXPECT_EQ(m.read(7).status, ReadStatus::kOk);
}

TEST(EccRemapTest, ManyStuckCellsUntilSparesExhaust) {
  MemoryChip chip(32);
  EccRemapAccess m(chip, 0.125);  // 4 spares
  ASSERT_EQ(m.spares_left(), 4u);
  for (std::size_t a = 0; a < 5; ++a) {
    chip.inject_stuck_at(a, 10, true);
    m.write(a, 0);
  }
  EXPECT_EQ(m.spares_left(), 0u);
  EXPECT_LE(m.stats().remaps, 5u);
  // The un-remapped word still limps along via per-read ECC correction.
  for (std::size_t a = 0; a < 5; ++a) {
    EXPECT_TRUE(m.read(a).ok());
  }
}

TEST(EccRemapTest, ScrubAlsoTriggersRetirement) {
  MemoryChip chip(64);
  EccRemapAccess m(chip, 0.125, /*words_per_scrub_step=*/56);
  m.write(9, 0);
  chip.inject_stuck_at(9, 12, true);
  m.scrub_step();
  EXPECT_EQ(m.stats().remaps, 1u);
  EXPECT_EQ(m.read(9).status, ReadStatus::kOk);
}

// --- M3 SEL mirror ------------------------------------------------------------------

TEST(SelMirrorTest, DistinctDevicesRequired) {
  MemoryChip chip(8);
  EXPECT_THROW(SelMirrorAccess(chip, chip), std::invalid_argument);
}

TEST(SelMirrorTest, SurvivesPrimaryLatchUp) {
  MemoryChip a(32), b(32);
  SelMirrorAccess m(a, b);
  for (std::size_t w = 0; w < 32; ++w) m.write(w, w * 7);
  a.inject_latch_up();
  // First read after SEL: device recovered from mirror, data intact.
  const ReadResult r = m.read(5);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 35u);
  EXPECT_EQ(a.state(), ChipState::kOperational);
  EXPECT_GE(m.stats().power_cycles, 1u);
  EXPECT_GE(m.stats().rebuilds, 1u);
  // Everything is intact after the rebuild.
  for (std::size_t w = 0; w < 32; ++w) {
    const ReadResult rr = m.read(w);
    ASSERT_TRUE(rr.ok());
    ASSERT_EQ(rr.value, w * 7);
  }
}

TEST(SelMirrorTest, SurvivesMirrorLatchUpViaScrub) {
  MemoryChip a(16), b(16);
  SelMirrorAccess m(a, b, /*words_per_scrub_step=*/16);
  for (std::size_t w = 0; w < 16; ++w) m.write(w, w);
  b.inject_latch_up();
  // Reads are served by the healthy primary; scrubbing discovers and
  // repairs the dead mirror.
  EXPECT_TRUE(m.read(3).ok());
  m.scrub_step();
  // Fail the primary now: data must come back from the rebuilt mirror.
  a.inject_latch_up();
  const ReadResult r = m.read(3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 3u);
}

TEST(SelMirrorTest, DoubleErrorOnPrimaryRecoveredFromMirror) {
  MemoryChip a(16), b(16);
  SelMirrorAccess m(a, b);
  m.write(0, 0x77);
  a.inject_bit_flip(0, 1);
  a.inject_bit_flip(0, 2);
  const ReadResult r = m.read(0);
  EXPECT_EQ(r.status, ReadStatus::kRecovered);
  EXPECT_EQ(r.value, 0x77u);
  // Primary was repaired in place.
  EXPECT_EQ(m.read(0).status, ReadStatus::kOk);
}

TEST(SelMirrorTest, SimultaneousDoubleDeviceLossIsReported) {
  MemoryChip a(8), b(8);
  SelMirrorAccess m(a, b);
  m.write(0, 9);
  a.inject_latch_up();
  b.inject_latch_up();
  const ReadResult r = m.read(0);
  EXPECT_EQ(r.status, ReadStatus::kUnavailable);
  EXPECT_GE(m.stats().data_losses, 1u);
  // Both devices were power-cycled so future writes are durable again.
  EXPECT_TRUE(m.write(0, 10));
  EXPECT_TRUE(m.read(0).ok());
}

TEST(SelMirrorTest, SingleBitFlipsCorrectedPerDevice) {
  MemoryChip a(8), b(8);
  SelMirrorAccess m(a, b);
  m.write(1, 0x42);
  a.inject_bit_flip(1, 9);
  EXPECT_EQ(m.read(1).status, ReadStatus::kCorrected);
  EXPECT_EQ(m.read(1).status, ReadStatus::kOk);  // repaired
}

// --- M4 TMR + ECC -------------------------------------------------------------------

TEST(TmrTest, DistinctDevicesRequired) {
  MemoryChip a(8), b(8);
  EXPECT_THROW(TmrEccAccess(a, a, b), std::invalid_argument);
}

TEST(TmrTest, RoundTripAndToleratesEverything) {
  MemoryChip a(16), b(16), c(16);
  TmrEccAccess m(a, b, c);
  m.write(0, 123);
  EXPECT_EQ(m.read(0).value, 123u);
  for (auto f : {FailureSemantics::kF0Stable, FailureSemantics::kF1TransientCmos,
                 FailureSemantics::kF2StuckAtCmos, FailureSemantics::kF3SdramSel,
                 FailureSemantics::kF4SdramSelSeu}) {
    EXPECT_TRUE(m.tolerates(f));
  }
}

TEST(TmrTest, OutvotesAWholeCorruptedCopy) {
  MemoryChip a(16), b(16), c(16);
  TmrEccAccess m(a, b, c);
  m.write(2, 0x5A5A);
  // Corrupt copy a beyond ECC (double flip): voting must mask it.
  a.inject_bit_flip(2, 0);
  a.inject_bit_flip(2, 1);
  const ReadResult r = m.read(2);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 0x5A5Au);
  // Repair pass rewrote copy a: subsequent read is fully clean.
  EXPECT_EQ(m.read(2).status, ReadStatus::kOk);
}

TEST(TmrTest, SurvivesLatchUpConcurrentWithSeu) {
  MemoryChip a(16), b(16), c(16);
  TmrEccAccess m(a, b, c);
  for (std::size_t w = 0; w < 16; ++w) m.write(w, w + 100);
  a.inject_latch_up();          // whole device gone
  b.inject_bit_flip(4, 17);     // SEU on a survivor at the word we read
  const ReadResult r = m.read(4);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 104u);
  EXPECT_EQ(a.state(), ChipState::kOperational);  // rebuilt
  for (std::size_t w = 0; w < 16; ++w) {
    ASSERT_EQ(m.read(w).value, w + 100);
  }
}

TEST(TmrTest, SurvivesSequentialLossOfEachDevice) {
  MemoryChip a(8), b(8), c(8);
  TmrEccAccess m(a, b, c);
  m.write(0, 77);
  for (MemoryChip* victim : {&a, &b, &c}) {
    victim->inject_latch_up();
    const ReadResult r = m.read(0);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value, 77u);
  }
}

TEST(TmrTest, TotalLossIsReportedNotInvented) {
  MemoryChip a(8), b(8), c(8);
  TmrEccAccess m(a, b, c);
  m.write(0, 1);
  a.inject_latch_up();
  b.inject_latch_up();
  c.inject_latch_up();
  const ReadResult r = m.read(0);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(m.stats().data_losses, 1u);
}

TEST(TmrTest, SefiDeviceIsPowerCycledAndRebuilt) {
  MemoryChip a(8), b(8), c(8);
  TmrEccAccess m(a, b, c);
  m.write(3, 33);
  c.inject_sefi();
  const ReadResult r = m.read(3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c.state(), ChipState::kOperational);
  EXPECT_EQ(m.read(3).value, 33u);
}

TEST(TmrTest, ScrubRepairsDivergence) {
  MemoryChip a(8), b(8), c(8);
  TmrEccAccess m(a, b, c, /*words_per_scrub_step=*/8);
  for (std::size_t w = 0; w < 8; ++w) m.write(w, w);
  for (std::size_t w = 0; w < 8; ++w) {
    a.inject_bit_flip(w, 2);
    a.inject_bit_flip(w, 3);
  }
  m.scrub_step();
  // After scrubbing, copy a agrees again: direct device comparison.
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_EQ(a.read(w).word, b.read(w).word);
  }
}

// --- Statistical adequacy campaign -------------------------------------------------
//
// Run each method over a chip (set) driven by each canonical fault profile
// and verify: adequate methods never lose data; inadequate pairings do (for
// profiles aggressive enough to show it within the campaign length).

struct Campaign {
  std::string method;
  FailureSemantics semantics;
  bool expect_integrity;
};

// Without this, gtest prints Campaign as a byte dump that includes the heap
// address of `method`, so the listed test names change from run to run.
void PrintTo(const Campaign& c, std::ostream* os) {
  *os << c.method << " under " << to_string(c.semantics) << ", "
      << (c.expect_integrity ? "holds" : "clashes");
}

class AdequacyTest : public ::testing::TestWithParam<Campaign> {};

TEST_P(AdequacyTest, MethodVsProfile) {
  const Campaign& c = GetParam();

  MemoryChip chip0(256), chip1(256), chip2(256);
  std::unique_ptr<IMemoryAccessMethod> method;
  if (c.method == "M1") method = std::make_unique<EccScrubAccess>(chip0, 256);
  if (c.method == "M2") method = std::make_unique<EccRemapAccess>(chip0, 0.125, 224);
  if (c.method == "M3") method = std::make_unique<SelMirrorAccess>(chip0, chip1, 256);
  if (c.method == "M4") method = std::make_unique<TmrEccAccess>(chip0, chip1, chip2, 256);
  ASSERT_NE(method, nullptr);

  aft::hw::FaultProfile profile;
  switch (c.semantics) {
    case FailureSemantics::kF0Stable: profile = aft::hw::profiles::stable(); break;
    case FailureSemantics::kF1TransientCmos:
      profile = aft::hw::profiles::cmos();
      profile.seu_rate = 2e-3;  // accelerated campaign
      break;
    case FailureSemantics::kF2StuckAtCmos:
      profile = aft::hw::profiles::cmos_aging();
      profile.seu_rate = 2e-3;
      profile.stuck_rate = 5e-4;
      break;
    case FailureSemantics::kF3SdramSel:
      profile = aft::hw::profiles::sdram_sel();
      profile.seu_rate = 2e-3;
      profile.sel_rate = 1e-3;
      break;
    case FailureSemantics::kF4SdramSelSeu:
      profile = aft::hw::profiles::sdram_sel_seu();
      profile.seu_rate = 5e-3;
      profile.sel_rate = 1e-3;
      profile.sefi_rate = 5e-4;
      break;
  }

  std::vector<aft::hw::FaultInjector> injectors;
  injectors.emplace_back(chip0, profile, 101);
  if (c.method == "M3" || c.method == "M4") injectors.emplace_back(chip1, profile, 202);
  if (c.method == "M4") injectors.emplace_back(chip2, profile, 303);

  const std::size_t n = method->capacity_words();
  for (std::size_t w = 0; w < n; ++w) method->write(w, w * 31 + 5);

  Xoshiro256 rng(999);
  std::uint64_t wrong_or_lost = 0;
  for (int step = 0; step < 20000; ++step) {
    for (auto& inj : injectors) inj.tick();
    if (step % 4 == 0) method->scrub_step();
    const std::size_t addr = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    const ReadResult r = method->read(addr);
    if (!r.ok() || r.value != addr * 31 + 5) {
      ++wrong_or_lost;
      method->write(addr, addr * 31 + 5);  // re-seed so errors don't cascade
    }
  }

  if (c.expect_integrity) {
    EXPECT_EQ(wrong_or_lost, 0u)
        << c.method << " under " << to_string(c.semantics);
  } else {
    EXPECT_GT(wrong_or_lost, 0u)
        << c.method << " under " << to_string(c.semantics)
        << " was expected to lose data in this campaign";
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodProfileMatrix, AdequacyTest,
    ::testing::Values(
        // Designed-for pairings: integrity must hold.
        Campaign{"M1", FailureSemantics::kF1TransientCmos, true},
        Campaign{"M2", FailureSemantics::kF2StuckAtCmos, true},
        Campaign{"M3", FailureSemantics::kF3SdramSel, true},
        Campaign{"M4", FailureSemantics::kF4SdramSelSeu, true},
        Campaign{"M4", FailureSemantics::kF3SdramSel, true},
        Campaign{"M4", FailureSemantics::kF1TransientCmos, true},
        // Clash pairings: the weaker method must visibly fail.
        Campaign{"M1", FailureSemantics::kF3SdramSel, false},
        Campaign{"M2", FailureSemantics::kF3SdramSel, false},
        Campaign{"M1", FailureSemantics::kF4SdramSelSeu, false}),
    [](const ::testing::TestParamInfo<Campaign>& param_info) {
      return param_info.param.method + "_" +
             to_string(param_info.param.semantics) +
             (param_info.param.expect_integrity ? "_holds" : "_clashes");
    });

// --- ScrubberDaemon ----------------------------------------------------------

TEST(ScrubberDaemonTest, RunsOnePassPerPeriod) {
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip, 16);
  aft::mem::ScrubberDaemon scrubber(sim, method, /*period=*/10);
  scrubber.start();
  sim.run_until(100);
  EXPECT_EQ(scrubber.passes(), 10u);
  scrubber.stop();
  sim.run_until(200);
  EXPECT_EQ(scrubber.passes(), 10u);
}

// --- Scrub-cursor edge cases --------------------------------------------------
// Regressions for the hardening sweep: before it, (a) a scrub cursor left
// beyond the end of a shrunk chip faulted the next step with out_of_range
// (the `== words` wrap never fires for a cursor already past the end), and
// (b) the mirror rebuild / remap spare-resolution paths walked stale extents
// into the same fault.  words_per_scrub_step == 0 must be an exact no-op.

TEST(EccScrubTest, ZeroStepScrubIsANoOp) {
  MemoryChip chip(16);
  EccScrubAccess m(chip, /*words_per_scrub_step=*/0);
  m.write(0, 0x1);
  chip.inject_bit_flip(0, 4);
  const auto reads_before = chip.reads();
  m.scrub_step();  // must not spin, divide, or touch the device
  EXPECT_EQ(chip.reads(), reads_before);
  EXPECT_EQ(m.stats().corrected_singles, 0u);
}

TEST(EccScrubTest, CursorWrapsWhenStepDoesNotDivideWordCount) {
  // 10 words, 7-word steps: the walk must cover addresses 7..9 AND wrap to
  // 0..3 on the second call, with no address skipped across the seam.
  MemoryChip chip(10);
  EccScrubAccess m(chip, 7);
  for (std::size_t w = 0; w < 10; ++w) m.write(w, w);
  chip.inject_bit_flip(9, 2);   // just before the wrap seam
  chip.inject_bit_flip(0, 60);  // just after it
  m.scrub_step();  // covers 0..6 (corrects addr 0)
  EXPECT_EQ(m.stats().corrected_singles, 1u);
  m.scrub_step();  // covers 7..9 then wraps to 0..3 (corrects addr 9)
  EXPECT_EQ(m.stats().corrected_singles, 2u);
  for (std::size_t w = 0; w < 10; ++w) {
    EXPECT_EQ(m.read(w).status, ReadStatus::kOk) << "addr " << w;
  }
}

TEST(EccScrubTest, StepLargerThanChipRescrubsWithoutFaulting) {
  MemoryChip chip(6);
  EccScrubAccess m(chip, 50);  // several full passes in one step
  for (std::size_t w = 0; w < 6; ++w) m.write(w, w);
  chip.inject_bit_flip(3, 1);
  m.scrub_step();
  EXPECT_EQ(m.stats().corrected_singles, 1u);
  EXPECT_EQ(m.read(3).status, ReadStatus::kOk);
}

TEST(EccScrubTest, ScrubSurvivesChipShrinkResize) {
  MemoryChip chip(128);
  EccScrubAccess m(chip, 100);
  for (std::size_t w = 0; w < 128; ++w) m.write(w, w);
  m.scrub_step();  // cursor now at 100
  chip.resize(32);  // hot swap: cursor 100 is now past the end
  EXPECT_NO_THROW(m.scrub_step());  // failing-before: out_of_range at addr 100
  // The scrub is live again on the replacement part.
  m.write(5, 0x5);
  chip.inject_bit_flip(5, 11);
  m.scrub_step();
  EXPECT_EQ(m.read(5).status, ReadStatus::kOk);
}

TEST(SelMirrorTest, ZeroStepScrubStillRecoversDevices) {
  // Step 0 suppresses the word walk but NOT the device-level health check —
  // that is the latch-up current sensor analogue and must keep running.
  MemoryChip a(8);
  MemoryChip b(8);
  SelMirrorAccess m(a, b, /*words_per_scrub_step=*/0);
  m.write(1, 0xBEEF);
  b.inject_latch_up();
  EXPECT_NO_THROW(m.scrub_step());
  EXPECT_EQ(b.state(), ChipState::kOperational);  // recovered from a
  EXPECT_EQ(m.read(1).value, 0xBEEFu);
}

TEST(SelMirrorTest, ScrubSurvivesChipShrinkResize) {
  MemoryChip a(64);
  MemoryChip b(64);
  SelMirrorAccess m(a, b, 50);
  for (std::size_t w = 0; w < 64; ++w) m.write(w, w);
  m.scrub_step();  // cursor at 50
  a.resize(16);    // shrink the primary: mirrored extent is now 16
  EXPECT_NO_THROW(m.scrub_step());  // failing-before: walked a_ at addr >= 16
  EXPECT_EQ(m.capacity_words(), 16u);
  // A device loss after the shrink must rebuild with the clamped extent.
  b.inject_latch_up();
  EXPECT_NO_THROW(m.scrub_step());  // failing-before: rebuild copied 64 words
  EXPECT_EQ(b.state(), ChipState::kOperational);
}

TEST(EccRemapTest, ZeroStepScrubIsANoOp) {
  MemoryChip chip(32);
  EccRemapAccess m(chip, 0.25, /*words_per_scrub_step=*/0);
  m.write(0, 1);
  const auto reads_before = chip.reads();
  m.scrub_step();
  EXPECT_EQ(chip.reads(), reads_before);
}

TEST(EccRemapTest, ScrubSurvivesChipShrinkResize) {
  MemoryChip chip(128);  // spare fraction 0.25 -> 96 logical words
  EccRemapAccess m(chip, 0.25, 90);
  for (std::size_t w = 0; w < m.capacity_words(); ++w) m.write(w, w);
  // Force a remap so some logical word resolves into the spare region that
  // is about to vanish (stuck value chosen to guarantee a write mismatch).
  const Word72 cw = ecc_encode(0xAA);
  chip.inject_stuck_at(10, 3, !aft::hw::get_bit(cw, 3));
  m.write(10, 0xAA);
  ASSERT_GE(m.stats().remaps, 1u);
  m.scrub_step();   // cursor at 90
  chip.resize(32);  // logical extent (96) and the spare target both stale
  // failing-before: out_of_range either at the stale cursor or when the
  // walk resolved logical 10 to its (now nonexistent) spare address.
  EXPECT_NO_THROW(m.scrub_step());
  EXPECT_NO_THROW(m.scrub_step());
}

TEST(ScrubberDaemonTest, RestartRunsASingleChain) {
  // A start() after stop() used to chain a SECOND pass loop beside the
  // pass still pending, so every stop/start cycle (e.g. an adaptation
  // changing cadence) silently doubled the scrub bandwidth.  stop() cancels
  // the pending pass, so one chain runs and the stale pass never dispatches.
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip, 16);
  aft::mem::ScrubberDaemon scrubber(sim, method, /*period=*/10);
  scrubber.start();  // pass pending at t=10
  sim.run_until(5);
  scrubber.stop();
  EXPECT_TRUE(sim.idle());
  scrubber.start();  // fresh chain: passes at 15, 25, 35, ...
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(105);  // exactly 10 fresh periods
  EXPECT_EQ(scrubber.passes(), 10u);
  EXPECT_EQ(sim.executed(), 10u);
}

}  // namespace
