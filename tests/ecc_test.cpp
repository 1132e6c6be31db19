// Property tests for the Hamming SEC-DED (72,64) code: exhaustive
// single-bit correction, double-bit detection, and round-trip integrity.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/ecc.hpp"
#include "util/rng.hpp"

namespace {

using aft::hw::Word72;
using aft::hw::flip_bit;
using aft::mem::EccStatus;
using aft::mem::ecc_decode;
using aft::mem::ecc_encode;
using aft::util::Xoshiro256;

TEST(EccTest, CleanRoundTrip) {
  for (const std::uint64_t data :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0xDEADBEEFCAFEBABE}, std::uint64_t{0x5555555555555555},
        std::uint64_t{0xAAAAAAAAAAAAAAAA}}) {
    const Word72 w = ecc_encode(data);
    const auto dec = ecc_decode(w);
    EXPECT_EQ(dec.status, EccStatus::kClean);
    EXPECT_EQ(dec.data, data);
  }
}

TEST(EccTest, RandomRoundTrip) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t data = rng.next();
    const auto dec = ecc_decode(ecc_encode(data));
    ASSERT_EQ(dec.status, EccStatus::kClean);
    ASSERT_EQ(dec.data, data);
  }
}

/// Exhaustive single-bit property, parameterized over all 72 bit positions.
class EccSingleBitTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EccSingleBitTest, EverySingleFlipIsCorrected) {
  const unsigned bit = GetParam();
  Xoshiro256 rng(bit);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t data = rng.next();
    Word72 w = ecc_encode(data);
    flip_bit(w, bit);
    const auto dec = ecc_decode(w);
    ASSERT_EQ(dec.status, EccStatus::kCorrectedSingle)
        << "bit " << bit << " iteration " << i;
    ASSERT_EQ(dec.data, data);
    // Repaired codeword must decode clean.
    const auto again = ecc_decode(dec.repaired);
    ASSERT_EQ(again.status, EccStatus::kClean);
    ASSERT_EQ(again.data, data);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, EccSingleBitTest, ::testing::Range(0u, 72u));

TEST(EccTest, AllDoubleFlipsDetected) {
  // Exhaustive over all C(72,2) = 2556 bit pairs, one random word each.
  Xoshiro256 rng(7);
  for (unsigned b1 = 0; b1 < 72; ++b1) {
    for (unsigned b2 = b1 + 1; b2 < 72; ++b2) {
      const std::uint64_t data = rng.next();
      Word72 w = ecc_encode(data);
      flip_bit(w, b1);
      flip_bit(w, b2);
      const auto dec = ecc_decode(w);
      ASSERT_EQ(dec.status, EccStatus::kDetectedDouble)
          << "bits " << b1 << "," << b2;
    }
  }
}

TEST(EccTest, TripleFlipsNeverSilentlyCleanOnSamples) {
  // Triple errors exceed SEC-DED guarantees (they may alias to a wrong
  // single-bit "correction"), but they must never decode as kClean with the
  // original data intact AND must never return clean status at all, since
  // odd-weight errors always trip the overall parity.
  Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t data = rng.next();
    Word72 w = ecc_encode(data);
    unsigned bits[3];
    bits[0] = static_cast<unsigned>(rng.uniform_int(0, 71));
    do {
      bits[1] = static_cast<unsigned>(rng.uniform_int(0, 71));
    } while (bits[1] == bits[0]);
    do {
      bits[2] = static_cast<unsigned>(rng.uniform_int(0, 71));
    } while (bits[2] == bits[0] || bits[2] == bits[1]);
    for (unsigned b : bits) flip_bit(w, b);
    const auto dec = ecc_decode(w);
    ASSERT_NE(dec.status, EccStatus::kClean);
  }
}

TEST(EccTest, CheckBitsDifferForDifferentData) {
  // Sanity: the code actually uses the check byte.
  const Word72 a = ecc_encode(0x01);
  const Word72 b = ecc_encode(0x02);
  EXPECT_NE(a, b);
  EXPECT_NE(ecc_encode(0).check | ecc_encode(~std::uint64_t{0}).check, 0);
}

TEST(EccTest, ZeroCodewordIsCleanZero) {
  // ecc_encode(0) must be all-zero (linear code): decode of all-zero word.
  const auto dec = ecc_decode(Word72{});
  EXPECT_EQ(dec.status, EccStatus::kClean);
  EXPECT_EQ(dec.data, 0u);
}

// ---------------------------------------------------------------------------
// Differential suite: the mask kernel against the retained bit-loop
// reference (ecc_encode_ref/ecc_decode_ref).  Both implementations must be
// indistinguishable on every codeword the fault model can produce.
// ---------------------------------------------------------------------------

using aft::mem::ecc_decode_ref;
using aft::mem::ecc_encode_ref;

void expect_same_decode(const Word72& w, const char* what) {
  const auto mask = ecc_decode(w);
  const auto ref = ecc_decode_ref(w);
  ASSERT_EQ(mask.status, ref.status) << what;
  if (mask.status != EccStatus::kDetectedDouble) {
    ASSERT_EQ(mask.data, ref.data) << what;
    ASSERT_EQ(mask.repaired, ref.repaired) << what;
  }
}

TEST(EccDifferentialTest, EncodeMatchesReference) {
  Xoshiro256 rng(101);
  for (const std::uint64_t data :
       {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0},
        std::uint64_t{0xDEADBEEFCAFEBABE}}) {
    ASSERT_EQ(ecc_encode(data), ecc_encode_ref(data));
  }
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t data = rng.next();
    ASSERT_EQ(ecc_encode(data), ecc_encode_ref(data)) << "word " << i;
  }
}

TEST(EccDifferentialTest, SingleFlipSweepAgreesAndCorrects) {
  // All 72 single-bit flips over a set of random words: both kernels must
  // return kCorrectedSingle with the original data, and agree bit-for-bit.
  Xoshiro256 rng(202);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t data = rng.next();
    const Word72 clean = ecc_encode(data);
    for (unsigned bit = 0; bit < 72; ++bit) {
      Word72 w = clean;
      flip_bit(w, bit);
      const auto mask = ecc_decode(w);
      ASSERT_EQ(mask.status, EccStatus::kCorrectedSingle) << "bit " << bit;
      ASSERT_EQ(mask.data, data) << "bit " << bit;
      ASSERT_EQ(mask.repaired, clean) << "bit " << bit;
      expect_same_decode(w, "single flip");
    }
  }
}

TEST(EccDifferentialTest, DoubleFlipSweepAgreesAndDetects) {
  // All C(72,2) = 2556 double-bit flips over a set of random words: both
  // kernels must return kDetectedDouble for every pair.
  Xoshiro256 rng(303);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t data = rng.next();
    const Word72 clean = ecc_encode(data);
    for (unsigned b1 = 0; b1 < 72; ++b1) {
      for (unsigned b2 = b1 + 1; b2 < 72; ++b2) {
        Word72 w = clean;
        flip_bit(w, b1);
        flip_bit(w, b2);
        const auto mask = ecc_decode(w);
        ASSERT_EQ(mask.status, EccStatus::kDetectedDouble)
            << "bits " << b1 << "," << b2;
        ASSERT_EQ(ecc_decode_ref(w).status, EccStatus::kDetectedDouble)
            << "bits " << b1 << "," << b2;
      }
    }
  }
}

TEST(EccDifferentialTest, ArbitraryCorruptionAgrees) {
  // Beyond the SEC-DED hypothesis (0..6 flips, including aliasing triples):
  // whatever each kernel decides, they must decide it identically.
  Xoshiro256 rng(404);
  for (int i = 0; i < 4000; ++i) {
    Word72 w = ecc_encode(rng.next());
    const auto flips = rng.uniform_int(0, 6);
    for (std::uint64_t f = 0; f < flips; ++f) {
      flip_bit(w, static_cast<unsigned>(rng.uniform_int(0, 71)));
    }
    expect_same_decode(w, "random corruption");
  }
}

TEST(EccDifferentialTest, RandomRawWordsAgree) {
  // Raw 72-bit patterns that were never produced by the encoder (e.g. after
  // a latch-up wipes a device mid-word) must also decode identically.
  Xoshiro256 rng(505);
  for (int i = 0; i < 4000; ++i) {
    Word72 w{rng.next(), static_cast<std::uint8_t>(rng.next() & 0xFF)};
    expect_same_decode(w, "raw word");
  }
}

// ---------------------------------------------------------------------------
// Bit-sliced batch kernel: slice/unslice round trips, batch-vs-scalar
// differentials, per-word verdicts for mixed batches, and dispatched vs
// portable agreement.  (When the binary was built with AFT_FORCE_PORTABLE
// the dispatched path *is* the portable one and the agreement tests become
// self-checks — still valid, just not independent.)
// ---------------------------------------------------------------------------

using aft::mem::EccBatchCounts;
using aft::mem::EccBlock;
using aft::mem::ecc_check_batch;
using aft::mem::ecc_check_batch_portable;
using aft::mem::ecc_decode_batch;
using aft::mem::ecc_decode_batch_portable;
using aft::mem::ecc_encode_batch;
using aft::mem::ecc_encode_batch_portable;
using aft::mem::ecc_slice;
using aft::mem::ecc_unslice;
using aft::mem::kEccBatchLanes;

std::vector<Word72> random_codewords(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Word72> out(n);
  for (auto& w : out) w = ecc_encode(rng.next());
  return out;
}

TEST(EccSliceTest, SliceMatchesNaivePerBitTranspose) {
  Xoshiro256 rng(606);
  std::vector<Word72> words(kEccBatchLanes);
  for (auto& w : words) {
    w = Word72{rng.next(), static_cast<std::uint8_t>(rng.next() & 0xFF)};
  }
  EccBlock block{};
  ecc_slice(words.data(), words.size(), block);
  for (unsigned b = 0; b < 72; ++b) {
    std::uint64_t expect = 0;
    for (unsigned i = 0; i < kEccBatchLanes; ++i) {
      if (aft::hw::get_bit(words[i], b)) expect |= std::uint64_t{1} << i;
    }
    ASSERT_EQ(block.plane[b], expect) << "plane " << b;
  }
}

TEST(EccSliceTest, SliceUnsliceIsIdentityAtEveryAlignment) {
  // Every partial-tail size 1..64, plus the full block: the first n words
  // must round-trip exactly and the pad lanes must slice as zero (the
  // all-zero word is itself a valid clean codeword, which is what makes
  // zero-padding safe for the batch drivers).
  Xoshiro256 rng(707);
  for (std::size_t n = 1; n <= kEccBatchLanes; ++n) {
    std::vector<Word72> words(n);
    for (auto& w : words) {
      w = Word72{rng.next(), static_cast<std::uint8_t>(rng.next() & 0xFF)};
    }
    EccBlock block{};
    ecc_slice(words.data(), n, block);
    std::vector<Word72> back(n, Word72{~std::uint64_t{0}, 0xFF});
    ecc_unslice(block, n, back.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(back[i], words[i]) << "n=" << n << " word " << i;
    }
    if (n < kEccBatchLanes) {
      for (unsigned b = 0; b < 72; ++b) {
        ASSERT_EQ(block.plane[b] >> n, 0u) << "pad lanes not zero, plane " << b;
      }
    }
  }
}

TEST(EccBatchTest, EncodeMatchesScalarAtEveryAlignment) {
  // Sizes straddling the 64-word block and the 4-block SIMD superblock.
  Xoshiro256 rng(808);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{63},
                              std::size_t{64}, std::size_t{65}, std::size_t{127},
                              std::size_t{128}, std::size_t{255}, std::size_t{256},
                              std::size_t{257}, std::size_t{300}}) {
    std::vector<std::uint64_t> data(n);
    for (auto& d : data) d = rng.next();
    std::vector<Word72> batch(n);
    std::vector<Word72> portable(n);
    ecc_encode_batch(data.data(), n, batch.data());
    ecc_encode_batch_portable(data.data(), n, portable.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch[i], ecc_encode(data[i])) << "n=" << n << " word " << i;
      ASSERT_EQ(portable[i], batch[i]) << "n=" << n << " word " << i;
    }
  }
}

void expect_batch_matches_scalar(const std::vector<Word72>& words,
                                 const char* what) {
  const std::size_t n = words.size();
  std::vector<std::uint64_t> data(n);
  std::vector<EccStatus> status(n);
  std::vector<Word72> repaired(n);
  const EccBatchCounts counts =
      ecc_decode_batch(words.data(), n, data.data(), status.data(), repaired.data());
  std::uint64_t want_corrected = 0;
  std::uint64_t want_uncorrectable = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto want = ecc_decode(words[i]);
    ASSERT_EQ(status[i], want.status) << what << " word " << i;
    ASSERT_EQ(data[i], want.data) << what << " word " << i;
    ASSERT_EQ(repaired[i], want.repaired) << what << " word " << i;
    want_corrected += want.status == EccStatus::kCorrectedSingle ? 1 : 0;
    want_uncorrectable += want.status == EccStatus::kDetectedDouble ? 1 : 0;
  }
  ASSERT_EQ(counts.corrected, want_corrected) << what;
  ASSERT_EQ(counts.uncorrectable, want_uncorrectable) << what;

  // The portable entry point must agree with whatever the dispatcher chose.
  std::vector<std::uint64_t> pdata(n);
  std::vector<EccStatus> pstatus(n);
  std::vector<Word72> prepaired(n);
  const EccBatchCounts pcounts = ecc_decode_batch_portable(
      words.data(), n, pdata.data(), pstatus.data(), prepaired.data());
  ASSERT_EQ(pcounts.corrected, counts.corrected) << what;
  ASSERT_EQ(pcounts.uncorrectable, counts.uncorrectable) << what;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(pstatus[i], status[i]) << what << " word " << i;
    ASSERT_EQ(pdata[i], data[i]) << what << " word " << i;
    ASSERT_EQ(prepaired[i], repaired[i]) << what << " word " << i;
  }
}

TEST(EccBatchTest, DecodeEverySingleFlipPositionInEverySlot) {
  // 288 words = 4.5 64-word blocks; word i carries a flip at bit i % 72, so
  // every bit position lands in every block slot residue and the tail.
  auto words = random_codewords(288, 909);
  for (std::size_t i = 0; i < words.size(); ++i) {
    aft::hw::flip_bit(words[i], static_cast<unsigned>(i % 72));
  }
  expect_batch_matches_scalar(words, "single-flip sweep");
}

TEST(EccBatchTest, MixedVerdictBatchIsPerWord) {
  // A batch holding clean, correctable, and uncorrectable words at once
  // must report each word's own verdict — the uncorrectable words get the
  // documented scalar shape (no data, empty repaired) without bleeding
  // into their neighbours' corrections.
  auto words = random_codewords(130, 1010);
  Xoshiro256 rng(1111);
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i % 3 == 1) {  // single flip -> correctable
      aft::hw::flip_bit(words[i], static_cast<unsigned>(rng.uniform_int(0, 71)));
    } else if (i % 3 == 2) {  // double flip -> uncorrectable
      const auto b1 = static_cast<unsigned>(rng.uniform_int(0, 71));
      const auto b2 = (b1 + 1 + static_cast<unsigned>(rng.uniform_int(0, 70))) % 72;
      aft::hw::flip_bit(words[i], b1);
      aft::hw::flip_bit(words[i], b2);
    }
  }
  expect_batch_matches_scalar(words, "mixed verdicts");

  // Spot-check the documented uncorrectable shape directly.
  std::vector<std::uint64_t> data(words.size());
  std::vector<EccStatus> status(words.size());
  std::vector<Word72> repaired(words.size());
  ecc_decode_batch(words.data(), words.size(), data.data(), status.data(),
                   repaired.data());
  for (std::size_t i = 2; i < words.size(); i += 3) {
    ASSERT_EQ(status[i], EccStatus::kDetectedDouble) << "word " << i;
    ASSERT_EQ(data[i], 0u) << "word " << i;
    ASSERT_EQ(repaired[i], Word72{}) << "word " << i;
  }
}

TEST(EccBatchTest, ArbitraryCorruptionAgreesWithScalar) {
  Xoshiro256 rng(1212);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 320));
    std::vector<Word72> words(n);
    for (auto& w : words) {
      w = ecc_encode(rng.next());
      const auto flips = rng.uniform_int(0, 4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        aft::hw::flip_bit(w, static_cast<unsigned>(rng.uniform_int(0, 71)));
      }
    }
    expect_batch_matches_scalar(words, "random corruption batch");
  }
}

TEST(EccBatchTest, CheckMatchesScalarAtEveryAlignment) {
  // Every n from 0 to 300 (straddling the 64-word block and the 256-word
  // SIMD superblock) plus 1000.  Words are clean, carry 1, 2 or 3 flips, or
  // are raw random bits.  A mask word past ceil(n / 64) holds a sentinel
  // that neither entry point may touch.
  constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
  Xoshiro256 rng(1414);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 300; ++n) sizes.push_back(n);
  sizes.push_back(1000);
  for (const std::size_t n : sizes) {
    std::vector<Word72> words(n);
    for (auto& w : words) {
      const auto kind = rng.uniform_int(0, 4);
      if (kind == 4) {
        w = Word72{rng.next(), static_cast<std::uint8_t>(rng.next() & 0xFF)};
        continue;
      }
      w = ecc_encode(rng.next());
      for (std::uint64_t f = 0; f < kind; ++f) {
        flip_bit(w, static_cast<unsigned>(rng.uniform_int(0, 71)));
      }
    }
    const std::size_t masks = (n + 63) / 64;
    std::size_t want_count = 0;
    for (const Word72& w : words) {
      if (ecc_decode(w).status != EccStatus::kClean) ++want_count;
    }
    for (const bool portable : {false, true}) {
      std::vector<std::uint64_t> dirty(masks + 1, kSentinel);
      const std::size_t count =
          portable ? ecc_check_batch_portable(words.data(), n, dirty.data())
                   : ecc_check_batch(words.data(), n, dirty.data());
      std::size_t popcount = 0;
      for (std::size_t i = 0; i < masks * 64; ++i) {
        const bool flagged = ((dirty[i / 64] >> (i % 64)) & 1u) != 0;
        if (flagged) ++popcount;
        const bool want = i < n && ecc_decode(words[i]).status != EccStatus::kClean;
        ASSERT_EQ(flagged, want) << "portable=" << portable << " n=" << n
                                 << " word " << i;
      }
      ASSERT_EQ(dirty[masks], kSentinel) << "portable=" << portable << " n=" << n;
      ASSERT_EQ(count, popcount) << "portable=" << portable << " n=" << n;
      ASSERT_EQ(count, want_count) << "portable=" << portable << " n=" << n;
    }
  }
}

TEST(EccBatchTest, NullRepairedOutIsAccepted) {
  auto words = random_codewords(100, 1313);
  aft::hw::flip_bit(words[10], 3);
  std::vector<std::uint64_t> data(words.size());
  std::vector<EccStatus> status(words.size());
  const EccBatchCounts counts = ecc_decode_batch(words.data(), words.size(),
                                                 data.data(), status.data(),
                                                 nullptr);
  EXPECT_EQ(counts.corrected, 1u);
  EXPECT_EQ(counts.uncorrectable, 0u);
  EXPECT_EQ(status[10], EccStatus::kCorrectedSingle);
}

}  // namespace
