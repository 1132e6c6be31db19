// Compile-time layout tables for the Hamming SEC-DED (72,64) code —
// shared by the scalar kernel (ecc.cpp), the portable bit-sliced batch
// kernel, and the AVX2 translation unit (ecc_avx2.cpp), so all four
// implementations derive from one description of the code.
//
// Layout recap (see ecc.hpp): codeword bit indices 0..70 are Hamming
// positions 1..71; parity bits sit at positions {1,2,4,8,16,32,64}; the
// remaining 64 positions carry data; bit index 71 is the overall (even)
// parity that separates single from double errors.
//
// Internal header — not part of the public mem/ API.
#pragma once

#include <array>
#include <cstdint>

#include "hw/memory_chip.hpp"

namespace aft::mem::detail {

inline constexpr unsigned kPositions = 71;  // Hamming positions 1..71 at bit idx 0..70
inline constexpr unsigned kOverallParityBit = 71;

constexpr bool is_parity_position(unsigned p) noexcept {
  return (p & (p - 1)) == 0;  // powers of two
}

/// Bit indices (0..70) of the 64 data positions, in increasing order.
constexpr std::array<unsigned, 64> data_bit_indices() noexcept {
  std::array<unsigned, 64> out{};
  unsigned n = 0;
  for (unsigned p = 1; p <= kPositions; ++p) {
    if (!is_parity_position(p)) out[n++] = p - 1;
  }
  return out;
}

inline constexpr std::array<unsigned, 64> kDataBits = data_bit_indices();
inline constexpr std::array<unsigned, 7> kParityPositions = {1, 2, 4, 8, 16, 32, 64};

/// A 72-bit mask split the same way Word72 is.
struct Mask72 {
  std::uint64_t lo = 0;
  std::uint8_t hi = 0;
};

/// kParityMasks[j] covers every Hamming position p (1..71) with bit j set in
/// p — including position 2^j itself, which is harmless during encode (the
/// parity bits are still zero when the folds run) and exactly what the
/// syndrome computation needs during decode.
constexpr std::array<Mask72, 7> parity_coverage_masks() noexcept {
  std::array<Mask72, 7> m{};
  for (unsigned j = 0; j < 7; ++j) {
    for (unsigned p = 1; p <= kPositions; ++p) {
      if ((p & (1u << j)) == 0) continue;
      const unsigned idx = p - 1;
      if (idx < 64) {
        m[j].lo |= std::uint64_t{1} << idx;
      } else {
        m[j].hi = static_cast<std::uint8_t>(m[j].hi | (1u << (idx - 64)));
      }
    }
  }
  return m;
}

inline constexpr std::array<Mask72, 7> kParityMasks = parity_coverage_masks();

/// Syndrome (0..127) -> bit index to flip for a single-bit error, or -1 when
/// the syndrome names no codeword position (only reachable by multi-bit
/// corruption).
constexpr std::array<std::int8_t, 128> syndrome_table() noexcept {
  std::array<std::int8_t, 128> t{};
  for (unsigned s = 0; s < 128; ++s) {
    t[s] = (s >= 1 && s <= kPositions) ? static_cast<std::int8_t>(s - 1)
                                       : std::int8_t{-1};
  }
  return t;
}

inline constexpr std::array<std::int8_t, 128> kSyndromeToBit = syndrome_table();

/// The 64 data bits occupy six contiguous runs between the power-of-two
/// parity positions, so scatter/gather is six shift+mask moves instead of 64
/// single-bit transfers.
struct Run {
  unsigned data_shift;  ///< first data-bit index of the run
  unsigned width;       ///< run length in bits
  unsigned code_index;  ///< first codeword bit index of the run
};

inline constexpr std::array<Run, 6> kRuns = {{
    {0, 1, 2},     // position 3
    {1, 3, 4},     // positions 5..7
    {4, 7, 8},     // positions 9..15
    {11, 15, 16},  // positions 17..31
    {26, 31, 32},  // positions 33..63
    {57, 7, 64},   // positions 65..71 (check byte bits 0..6)
}};

constexpr bool runs_match_data_bits() noexcept {
  unsigned i = 0;
  for (const Run& r : kRuns) {
    for (unsigned k = 0; k < r.width; ++k, ++i) {
      if (i >= 64 || kDataBits[i] != r.code_index + k) return false;
    }
  }
  return i == 64;
}
static_assert(runs_match_data_bits(),
              "scatter/gather runs must enumerate exactly the data positions");

constexpr std::uint64_t run_mask(unsigned width) noexcept {
  return (std::uint64_t{1} << width) - 1;
}

constexpr hw::Word72 scatter_data(std::uint64_t d) noexcept {
  hw::Word72 w{};
  for (const Run& r : kRuns) {
    const std::uint64_t field = (d >> r.data_shift) & run_mask(r.width);
    if (r.code_index < 64) {
      w.data |= field << r.code_index;
    } else {
      w.check = static_cast<std::uint8_t>(w.check | (field << (r.code_index - 64)));
    }
  }
  return w;
}

constexpr std::uint64_t gather_data(const hw::Word72& w) noexcept {
  std::uint64_t d = 0;
  for (const Run& r : kRuns) {
    const std::uint64_t field =
        r.code_index < 64
            ? (w.data >> r.code_index) & run_mask(r.width)
            : (static_cast<std::uint64_t>(w.check) >> (r.code_index - 64)) &
                  run_mask(r.width);
    d |= field << r.data_shift;
  }
  return d;
}

static_assert(gather_data(scatter_data(0x0123456789ABCDEFULL)) ==
              0x0123456789ABCDEFULL);
static_assert(gather_data(scatter_data(~std::uint64_t{0})) == ~std::uint64_t{0});

/// Parity (odd = true) of a 64-bit word via a log2 XOR fold.  Deliberately
/// not std::popcount: parity needs one bit, and the fold stays fast on
/// baseline targets where popcount lowers to a library call.
constexpr bool parity_fold(std::uint64_t x) noexcept {
  x ^= x >> 32;
  x ^= x >> 16;
  x ^= x >> 8;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return (x & 1u) != 0;
}

/// Parity of the word restricted to a coverage mask.  XORing the masked
/// check byte into the masked lo word preserves total parity, so one fold
/// covers all 72 bits.
constexpr bool masked_parity(const hw::Word72& w, const Mask72& m) noexcept {
  return parity_fold((w.data & m.lo) ^
                     static_cast<std::uint64_t>(w.check & m.hi));
}

/// Overall parity across all 72 bits.
constexpr bool overall_parity_fold(const hw::Word72& w) noexcept {
  return parity_fold(w.data ^ w.check);
}

/// Plane-index list of the positions one parity bit covers — the bit-sliced
/// kernels iterate these instead of testing `(p >> j) & 1` per position, so
/// the XOR folds compile to straight-line chains.
struct CoverList {
  unsigned count = 0;
  std::array<std::uint8_t, 36> idx{};  ///< plane indices (position - 1)
};

/// kCoverAll[j]: every position 1..71 with bit j set (syndrome folds).
constexpr std::array<CoverList, 7> cover_all() noexcept {
  std::array<CoverList, 7> out{};
  for (unsigned j = 0; j < 7; ++j) {
    for (unsigned p = 1; p <= kPositions; ++p) {
      if ((p >> j) & 1u) out[j].idx[out[j].count++] = static_cast<std::uint8_t>(p - 1);
    }
  }
  return out;
}

/// kCoverData[j]: the data positions only (encode folds — the parity planes
/// are still zero when these run, so skipping them is free accuracy).
constexpr std::array<CoverList, 7> cover_data() noexcept {
  std::array<CoverList, 7> out{};
  for (unsigned j = 0; j < 7; ++j) {
    for (unsigned p = 1; p <= kPositions; ++p) {
      if (is_parity_position(p)) continue;
      if ((p >> j) & 1u) out[j].idx[out[j].count++] = static_cast<std::uint8_t>(p - 1);
    }
  }
  return out;
}

inline constexpr std::array<CoverList, 7> kCoverAll = cover_all();
inline constexpr std::array<CoverList, 7> kCoverData = cover_data();

/// Reference syndrome via masked parities (the pre-cascade formulation);
/// retained as the constexpr oracle the cascade kernel is verified against.
constexpr unsigned syndrome_by_masks(const hw::Word72& w) noexcept {
  unsigned s = 0;
  for (unsigned j = 0; j < 7; ++j) {
    s |= static_cast<unsigned>(masked_parity(w, kParityMasks[j])) << j;
  }
  return s;
}

/// Syndrome + overall parity in one Hamming-position cascade.
///
/// Embed the codeword into position space: bit p of a 128-bit value y is
/// codeword bit p-1 (positions 1..71; y bit 0 and bits 72..127 are zero).
/// Because parity j covers exactly the positions with bit j set, halving
/// folds of y yield all seven syndrome bits: the parity of the upper half
/// at fold level j IS syndrome bit j, and the fully folded residue is the
/// total parity of positions 1..71.  ~60 ops instead of seven independent
/// 72-bit masked folds — this is what moved the scalar decode gate from a
/// marginal ~9x over the bit-loop reference to >=10x with headroom.
///
/// Returns syndrome in bits 0..6 and the overall parity (all 72 bits,
/// including the overall-parity bit itself) in bit 7.
constexpr unsigned syndrome_cascade(const hw::Word72& w) noexcept {
  // Position space: y_lo bits 1..63 = data bits 0..62; y_hi bit 0 = data
  // bit 63 (position 64), y_hi bits 1..7 = check bits 0..6 (positions
  // 65..71).  Check bit 7 (the overall parity bit) is outside the Hamming
  // positions and enters only the overall parity at the end.
  const std::uint64_t lo = w.data << 1;
  const unsigned hi =
      static_cast<unsigned>(w.data >> 63) | ((w.check & 0x7Fu) << 1);

  unsigned s = 0;
  // s6: positions 64..127 live entirely in hi.
  unsigned a = hi;
  a ^= a >> 4;
  a ^= a >> 2;
  a ^= a >> 1;
  s |= (a & 1u) << 6;

  std::uint64_t z = lo ^ hi;  // fold positions 64.. onto 0..63
  std::uint64_t u = z >> 32;  // s5: positions with bit 5 set
  z = (z ^ u) & 0xFFFFFFFFULL;
  u ^= u >> 16;
  u ^= u >> 8;
  u ^= u >> 4;
  u ^= u >> 2;
  u ^= u >> 1;
  s |= static_cast<unsigned>(u & 1u) << 5;

  u = z >> 16;  // s4
  z = (z ^ u) & 0xFFFFULL;
  u ^= u >> 8;
  u ^= u >> 4;
  u ^= u >> 2;
  u ^= u >> 1;
  s |= static_cast<unsigned>(u & 1u) << 4;

  u = z >> 8;  // s3
  z = (z ^ u) & 0xFFULL;
  u ^= u >> 4;
  u ^= u >> 2;
  u ^= u >> 1;
  s |= static_cast<unsigned>(u & 1u) << 3;

  u = z >> 4;  // s2
  z = (z ^ u) & 0xFULL;
  u ^= u >> 2;
  u ^= u >> 1;
  s |= static_cast<unsigned>(u & 1u) << 2;

  u = z >> 2;  // s1
  z = (z ^ u) & 0x3ULL;
  u ^= u >> 1;
  s |= static_cast<unsigned>(u & 1u) << 1;

  s |= static_cast<unsigned>(z >> 1) & 1u;  // s0: odd positions
  // Residue = total parity of positions 1..71; add the overall-parity bit.
  const unsigned total =
      (static_cast<unsigned>(z ^ (z >> 1)) ^ (w.check >> 7)) & 1u;
  return s | (total << 7);
}

/// The cascade must agree with the masked-parity formulation on every
/// syndrome bit; spot-verified at compile time over a pattern basis.
constexpr bool cascade_matches_masks() noexcept {
  constexpr std::uint64_t kData[] = {
      0x0123456789ABCDEFULL, ~std::uint64_t{0}, 0x5555555555555555ULL,
      0xAAAAAAAAAAAAAAAAULL, 0x8000000000000001ULL, 1ULL, 0ULL,
      0xDEADBEEFCAFEBABEULL};
  for (const std::uint64_t d : kData) {
    for (unsigned c = 0; c < 256; c += 37) {
      const hw::Word72 w{d ^ (d >> 3) ^ c, static_cast<std::uint8_t>(c)};
      const unsigned want =
          syndrome_by_masks(w) |
          (static_cast<unsigned>(overall_parity_fold(w)) << 7);
      if (syndrome_cascade(w) != want) return false;
    }
  }
  // Every single-bit pattern: the syndrome must name its own position.
  for (unsigned idx = 0; idx < 72; ++idx) {
    hw::Word72 w{};
    hw::set_bit(w, idx, true);
    const unsigned expect = (idx < 71 ? idx + 1 : 0u) | 0x80u;
    if (syndrome_cascade(w) != expect) return false;
  }
  return true;
}
static_assert(cascade_matches_masks(),
              "syndrome cascade must reproduce the masked-parity syndromes");

}  // namespace aft::mem::detail
