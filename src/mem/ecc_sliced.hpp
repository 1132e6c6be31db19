// Bit-sliced batch kernel for the Hamming SEC-DED (72,64) code.
//
// Orientation: a "superblock" is 64 codewords per lane.  Slicing transposes
// it so plane[b] holds bit b of every word — bit i of plane[b] (lane L) is
// bit b of word 64*L + i.  In plane space one XOR is 64 parallel parity
// accumulations, so a whole syndrome costs ~4 XOR per word instead of ~40
// scalar ops, and repair becomes branch-free mask algebra on 71 planes.
//
// Everything here is templated on a lane-traits policy:
//   - ScalarTraits (below): V = uint64_t, 1 lane, 64 words per superblock —
//     the portable path, pure C++.
//   - Avx2Traits (ecc_avx2.cpp): V = __m256i, 4 lanes, 256 words per
//     superblock — same template instantiated in a TU compiled with -mavx2.
// The two paths are the *same code*; only the lane ops differ, which is what
// makes the exhaustive differential tests in tests/ecc_test.cpp meaningful
// for both.
//
// Transpose convention is LSB-first (row k = a[k], column b = bit b).  Note
// the delta-swap orientation: the textbook transpose32/64 is written for the
// MSB-first convention and performs an ANTI-transpose under ours, so the
// shifted operand is swapped (`a[k] >> j` against `a[k+j]`, mask on the low
// half).  tests/ecc_test.cpp pins slice->unslice identity and slice vs a
// naive per-bit reslice.
//
// Internal header — not part of the public mem/ API (use the batch entry
// points in ecc.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "mem/ecc.hpp"
#include "mem/ecc_layout.hpp"

namespace aft::mem::detail {

/// Portable lane policy: one 64-bit lane, plain integer ops.
struct ScalarTraits {
  using V = std::uint64_t;
  static constexpr unsigned kLanes = 1;

  static V zero() noexcept { return 0; }
  static V bcast(std::uint64_t c) noexcept { return c; }
  static V vxor(V a, V b) noexcept { return a ^ b; }
  static V vand(V a, V b) noexcept { return a & b; }
  static V vor(V a, V b) noexcept { return a | b; }
  static V vnot(V a) noexcept { return ~a; }
  static V shl(V a, unsigned s) noexcept { return a << s; }
  static V shr(V a, unsigned s) noexcept { return a >> s; }
  static bool any(V a) noexcept { return a != 0; }
  static void to_lanes(V a, std::uint64_t* out) noexcept { out[0] = a; }

  // Lane L of a row maps to word 64*L + k; with one lane these are direct.
  static V load_row(const hw::Word72* w, unsigned k) noexcept { return w[k].data; }
  static void store_row(V row, hw::Word72* w, unsigned k) noexcept { w[k].data = row; }
  static V load_data(const std::uint64_t* d, unsigned k) noexcept { return d[k]; }
  static void store_data(V row, std::uint64_t* d, unsigned k) noexcept { d[k] = row; }

  /// Byte r of the result is the check byte of word 8g + r.
  static V load_check_group(const hw::Word72* w, unsigned g) noexcept {
    const hw::Word72* p = w + std::size_t{8} * g;
    V x = 0;
    for (unsigned r = 0; r < 8; ++r) {
      x |= static_cast<std::uint64_t>(p[r].check) << (8u * r);
    }
    return x;
  }
  static void store_check_group(V x, hw::Word72* w, unsigned g) noexcept {
    hw::Word72* p = w + std::size_t{8} * g;
    for (unsigned r = 0; r < 8; ++r) {
      p[r].check = static_cast<std::uint8_t>((x >> (8u * r)) & 0xFFu);
    }
  }
};

/// In-place 64x64 bit transpose of each lane: after the call, bit i of
/// a[b] is the former bit b of a[i].  Recursive delta-swap: stage j swaps
/// the upper-right and lower-left 2^j-sized sub-blocks.
template <typename T>
void transpose64(typename T::V a[64]) noexcept {
  using V = typename T::V;
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    const V mv = T::bcast(m);
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const V t = T::vand(T::vxor(T::shr(a[k], j), a[k + j]), mv);
      a[k] = T::vxor(a[k], T::shl(t, j));
      a[k + j] = T::vxor(a[k + j], t);
    }
  }
}

/// 8x8 bit transpose within each 64-bit lane (byte r = row r, bit c of the
/// byte = column c).  Same recursive delta-swap, three stages; involutive.
template <typename T>
typename T::V transpose8x8(typename T::V x) noexcept {
  using V = typename T::V;
  V t = T::vand(T::vxor(x, T::shr(x, 28)), T::bcast(0x00000000F0F0F0F0ULL));
  x = T::vxor(x, T::vxor(t, T::shl(t, 28)));
  t = T::vand(T::vxor(x, T::shr(x, 14)), T::bcast(0x0000CCCC0000CCCCULL));
  x = T::vxor(x, T::vxor(t, T::shl(t, 14)));
  t = T::vand(T::vxor(x, T::shr(x, 7)), T::bcast(0x00AA00AA00AA00AAULL));
  x = T::vxor(x, T::vxor(t, T::shl(t, 7)));
  return x;
}

/// Slices a full superblock (64 * T::kLanes words) into 72 bit-planes.
template <typename T>
void slice_words(const hw::Word72* w, typename T::V plane[72]) noexcept {
  using V = typename T::V;
  V rows[64];
  for (unsigned k = 0; k < 64; ++k) rows[k] = T::load_row(w, k);
  transpose64<T>(rows);
  for (unsigned b = 0; b < 64; ++b) plane[b] = rows[b];

  // Check bytes: per 8-word group, pack the bytes, transpose the 8x8 tile,
  // then byte k of the tile is check-bit k of the group's 8 words.
  for (unsigned k = 0; k < 8; ++k) plane[64 + k] = T::zero();
  const V byte_mask = T::bcast(0xFFu);
  for (unsigned g = 0; g < 8; ++g) {
    const V x = transpose8x8<T>(T::load_check_group(w, g));
    for (unsigned k = 0; k < 8; ++k) {
      plane[64 + k] = T::vor(plane[64 + k],
                             T::shl(T::vand(T::shr(x, 8u * k), byte_mask), 8u * g));
    }
  }
}

/// Inverse of slice_words: reassembles a full superblock from 72 planes.
template <typename T>
void unslice_words(const typename T::V plane[72], hw::Word72* out) noexcept {
  using V = typename T::V;
  V rows[64];
  for (unsigned b = 0; b < 64; ++b) rows[b] = plane[b];
  transpose64<T>(rows);
  for (unsigned k = 0; k < 64; ++k) T::store_row(rows[k], out, k);

  const V byte_mask = T::bcast(0xFFu);
  for (unsigned g = 0; g < 8; ++g) {
    V x = T::zero();
    for (unsigned k = 0; k < 8; ++k) {
      x = T::vor(x, T::shl(T::vand(T::shr(plane[64 + k], 8u * g), byte_mask), 8u * k));
    }
    T::store_check_group(transpose8x8<T>(x), out, g);
  }
}

/// All seven syndrome planes plus the overall-parity plane in one shared
/// pass.  Parity j is the XOR over positions with bit j set; the seven
/// covers share their aligned sub-blocks, so an XOR tree over 2^j-sized
/// position blocks computes everything in ~135 vector ops instead of the
/// ~330 a per-cover fold costs.  (Position = plane index + 1; position 0
/// does not exist, plane[71] joins only the overall parity.)
template <typename T>
void syndrome_fold(const typename T::V plane[72], typename T::V s[7],
                   typename T::V& odd) noexcept {
  using V = typename T::V;
  V p1[36];  // p1[b] = positions [2b, 2b+2)
  p1[0] = plane[0];
  for (unsigned b = 1; b < 36; ++b) p1[b] = T::vxor(plane[2 * b - 1], plane[2 * b]);
  V p2[18];  // [4b, 4b+4)
  for (unsigned b = 0; b < 18; ++b) p2[b] = T::vxor(p1[2 * b], p1[2 * b + 1]);
  V p3[9];  // [8b, 8b+8)
  for (unsigned b = 0; b < 9; ++b) p3[b] = T::vxor(p2[2 * b], p2[2 * b + 1]);
  V p4[5];  // [16b, 16b+16)
  for (unsigned b = 0; b < 4; ++b) p4[b] = T::vxor(p3[2 * b], p3[2 * b + 1]);
  p4[4] = p3[8];
  const V p5_0 = T::vxor(p4[0], p4[1]);  // [0, 32)
  const V p5_1 = T::vxor(p4[2], p4[3]);  // [32, 64)

  V acc = plane[0];
  for (unsigned b = 1; b < 36; ++b) acc = T::vxor(acc, plane[2 * b]);
  s[0] = acc;  // odd positions
  acc = p1[1];
  for (unsigned b = 3; b < 36; b += 2) acc = T::vxor(acc, p1[b]);
  s[1] = acc;
  acc = p2[1];
  for (unsigned b = 3; b < 18; b += 2) acc = T::vxor(acc, p2[b]);
  s[2] = acc;
  s[3] = T::vxor(T::vxor(p3[1], p3[3]), T::vxor(p3[5], p3[7]));
  s[4] = T::vxor(p4[1], p4[3]);
  s[5] = p5_1;
  s[6] = p4[4];  // positions 64..71 (clipped block)
  odd = T::vxor(T::vxor(T::vxor(p5_0, p5_1), p4[4]), plane[kOverallParityBit]);
}

/// Encode in plane space.  Precondition: the 64 data planes are populated
/// and all 8 parity planes are zero.  With the parity planes zeroed the
/// shared fold over full covers equals the data-only covers, so encode
/// reuses syndrome_fold; power-of-two positions never cover each other, so
/// the writebacks are independent.
template <typename T>
void encode_planes(typename T::V plane[72]) noexcept {
  using V = typename T::V;
  V s[7];
  V data_total;  // plane[71] is zero here, so this is the data-plane XOR
  syndrome_fold<T>(plane, s, data_total);
  V all = data_total;
  for (unsigned j = 0; j < 7; ++j) {
    plane[kParityPositions[j] - 1] = s[j];
    all = T::vxor(all, s[j]);
  }
  plane[kOverallParityBit] = all;
}

/// Decode + repair in plane space.  On return the planes hold the repaired
/// codewords; `corrected` / `uncorrectable` have bit i (lane L) set when
/// word 64*L + i was single-corrected / detected-double.  Uncorrectable
/// words are left as read (the caller substitutes the documented verdict).
template <typename T>
void decode_planes(typename T::V plane[72], typename T::V& corrected,
                   typename T::V& uncorrectable) noexcept {
  using V = typename T::V;
  // Syndrome planes: s[j] bit i = parity j check over word i's positions;
  // odd = overall parity over all 72 bits.
  V s[7];
  V odd;
  syndrome_fold<T>(plane, s, odd);
  V err = s[0];
  for (unsigned j = 1; j < 7; ++j) err = T::vor(err, s[j]);

  corrected = T::zero();
  uncorrectable = T::zero();
  if (!T::any(T::vor(err, odd))) return;  // whole superblock clean

  V ns[7];
  for (unsigned j = 0; j < 7; ++j) ns[j] = T::vnot(s[j]);

  // Odd parity with zero syndrome: the overall-parity bit itself flipped.
  const V fix71 = T::vand(odd, T::vnot(err));
  plane[kOverallParityBit] = T::vxor(plane[kOverallParityBit], fix71);
  corrected = fix71;

  // For each position p, eq selects the words whose syndrome == p (and
  // parity odd); XORing eq into plane[p-1] flips exactly those words' bit.
  // The 71 equality tests share their AND prefixes: build every combination
  // of the low three and high four syndrome bits once (odd folded into the
  // low table), then each position costs a single AND instead of eight.
  V lo[8];   // combos over syndrome bits 0..2, pre-ANDed with odd
  V hi[16];  // combos over syndrome bits 3..6 (only 0..8 reachable)
  {
    V lo01[4];
    for (unsigned k = 0; k < 4; ++k) {
      lo01[k] = T::vand((k & 1u) != 0 ? s[0] : ns[0],
                        (k & 2u) != 0 ? s[1] : ns[1]);
    }
    for (unsigned k = 0; k < 8; ++k) {
      lo[k] = T::vand(odd, T::vand(lo01[k & 3u], (k & 4u) != 0 ? s[2] : ns[2]));
    }
    V hi34[4];
    V hi56[4];
    for (unsigned k = 0; k < 4; ++k) {
      hi34[k] = T::vand((k & 1u) != 0 ? s[3] : ns[3],
                        (k & 2u) != 0 ? s[4] : ns[4]);
      hi56[k] = T::vand((k & 1u) != 0 ? s[5] : ns[5],
                        (k & 2u) != 0 ? s[6] : ns[6]);
    }
    for (unsigned k = 0; k <= (kPositions >> 3); ++k) {
      hi[k] = T::vand(hi34[k & 3u], hi56[k >> 2]);
    }
  }
  for (unsigned p = 1; p <= kPositions; ++p) {
    const V eq = T::vand(lo[p & 7u], hi[p >> 3]);
    plane[p - 1] = T::vxor(plane[p - 1], eq);
    corrected = T::vor(corrected, eq);
  }

  // Odd parity but the syndrome names no position (s > 71): multi-bit.
  // Even parity with a nonzero syndrome: classic double-bit error.
  uncorrectable = T::vor(T::vand(odd, T::vnot(corrected)),
                         T::vand(T::vnot(odd), err));
}

/// Encodes one full superblock (64 * T::kLanes data words).
template <typename T>
void encode_super(const std::uint64_t* data, hw::Word72* out) noexcept {
  using V = typename T::V;
  V rows[64];
  for (unsigned k = 0; k < 64; ++k) rows[k] = T::load_data(data, k);
  transpose64<T>(rows);

  V plane[72];
  for (unsigned b = 0; b < 64; ++b) plane[kDataBits[b]] = rows[b];
  for (const unsigned p : kParityPositions) plane[p - 1] = T::zero();
  plane[kOverallParityBit] = T::zero();

  encode_planes<T>(plane);
  unslice_words<T>(plane, out);
}

/// Decodes one full superblock; appends to `counts`.  `repaired_out` may be
/// null when the caller only needs data + statuses.
template <typename T>
void decode_super(const hw::Word72* words, std::uint64_t* data_out,
                  EccStatus* status_out, hw::Word72* repaired_out,
                  EccBatchCounts& counts) noexcept {
  using V = typename T::V;
  constexpr unsigned kLanes = T::kLanes;
  constexpr std::size_t kWords = std::size_t{64} * kLanes;

  V plane[72];
  slice_words<T>(words, plane);

  V corrected;
  V uncorrectable;
  decode_planes<T>(plane, corrected, uncorrectable);

  // Gathering the data is one more transpose: permute the planes into
  // data-bit order, transpose, and the rows ARE the data words.
  {
    V rows[64];
    for (unsigned i = 0; i < 64; ++i) rows[i] = plane[kDataBits[i]];
    transpose64<T>(rows);
    for (unsigned k = 0; k < 64; ++k) T::store_data(rows[k], data_out, k);
  }

  std::uint64_t cl[kLanes];
  std::uint64_t ul[kLanes];
  T::to_lanes(corrected, cl);
  T::to_lanes(uncorrectable, ul);
  std::uint64_t dirty = 0;
  for (unsigned L = 0; L < kLanes; ++L) dirty |= cl[L] | ul[L];

  if (repaired_out != nullptr) {
    if (dirty == 0) {
      std::copy(words, words + kWords, repaired_out);  // already codewords
    } else {
      unslice_words<T>(plane, repaired_out);
    }
  }

  if (dirty == 0) {
    std::fill(status_out, status_out + kWords, EccStatus::kClean);
    return;
  }

  for (unsigned L = 0; L < kLanes; ++L) {
    const std::uint64_t c = cl[L];
    const std::uint64_t u = ul[L];
    EccStatus* st = status_out + std::size_t{64} * L;
    if ((c | u) == 0) {
      std::fill(st, st + 64, EccStatus::kClean);
      continue;
    }
    counts.corrected += static_cast<std::uint64_t>(std::popcount(c));
    counts.uncorrectable += static_cast<std::uint64_t>(std::popcount(u));
    // Branchless verdicts (c and u are disjoint by construction):
    // kClean=0, kCorrectedSingle=1, kDetectedDouble=2.
    for (unsigned i = 0; i < 64; ++i) {
      st[i] = static_cast<EccStatus>(((c >> i) & 1u) | (((u >> i) & 1u) << 1));
    }
    // Same verdict shape as scalar ecc_decode for the (rare) uncorrectable
    // words: no data, empty repaired.
    for (std::uint64_t rest = u; rest != 0; rest &= rest - 1) {
      const auto i = static_cast<unsigned>(std::countr_zero(rest));
      data_out[std::size_t{64} * L + i] = 0;
      if (repaired_out != nullptr) {
        repaired_out[std::size_t{64} * L + i] = hw::Word72{};
      }
    }
  }
}

/// Flags the words of one full superblock that are not clean codewords:
/// bit i of dirty[L] is set when word 64*L + i has a nonzero syndrome or odd
/// overall parity, which is exactly when scalar ecc_decode would not report
/// kClean.  Only the syndrome is computed: no repair, no data gather, no
/// unslice.  Returns the number of flagged words.
template <typename T>
std::size_t check_super(const hw::Word72* words, std::uint64_t* dirty) noexcept {
  using V = typename T::V;
  V plane[72];
  slice_words<T>(words, plane);
  V s[7];
  V bad;
  syndrome_fold<T>(plane, s, bad);
  for (unsigned j = 0; j < 7; ++j) bad = T::vor(bad, s[j]);
  T::to_lanes(bad, dirty);
  std::size_t count = 0;
  for (unsigned L = 0; L < T::kLanes; ++L) {
    count += static_cast<std::size_t>(std::popcount(dirty[L]));
  }
  return count;
}

/// Batch encode driver: whole superblocks in place, zero-padded tail via a
/// stack bounce buffer (zero data encodes to the all-zero codeword, so
/// padding never perturbs real lanes).
template <typename T>
void encode_batch_impl(const std::uint64_t* data, std::size_t n,
                       hw::Word72* out) noexcept {
  constexpr std::size_t kCap = std::size_t{64} * T::kLanes;
  while (n >= kCap) {
    encode_super<T>(data, out);
    data += kCap;
    out += kCap;
    n -= kCap;
  }
  if (n != 0) {
    std::uint64_t dpad[kCap] = {};
    hw::Word72 wpad[kCap];
    std::copy(data, data + n, dpad);
    encode_super<T>(dpad, wpad);
    std::copy(wpad, wpad + n, out);
  }
}

/// Batch decode driver; tail handled like encode (the all-zero word is a
/// valid clean codeword, so pad lanes never contribute to the counts).
template <typename T>
EccBatchCounts decode_batch_impl(const hw::Word72* words, std::size_t n,
                                 std::uint64_t* data_out, EccStatus* status_out,
                                 hw::Word72* repaired_out) noexcept {
  constexpr std::size_t kCap = std::size_t{64} * T::kLanes;
  EccBatchCounts counts;
  while (n >= kCap) {
    decode_super<T>(words, data_out, status_out, repaired_out, counts);
    words += kCap;
    data_out += kCap;
    status_out += kCap;
    if (repaired_out != nullptr) repaired_out += kCap;
    n -= kCap;
  }
  if (n != 0) {
    hw::Word72 wpad[kCap] = {};
    std::uint64_t dpad[kCap];
    EccStatus spad[kCap];
    hw::Word72 rpad[kCap];
    std::copy(words, words + n, wpad);
    decode_super<T>(wpad, dpad, spad, repaired_out != nullptr ? rpad : nullptr,
                    counts);
    std::copy(dpad, dpad + n, data_out);
    std::copy(spad, spad + n, status_out);
    if (repaired_out != nullptr) std::copy(rpad, rpad + n, repaired_out);
  }
  return counts;
}

/// Batch check driver: writes the ceil(n / 64) dirty masks.  A short tail is
/// zero-padded like decode's, and the all-zero word is clean, so the mask
/// bits at or past n come out clear.
template <typename T>
std::size_t check_batch_impl(const hw::Word72* words, std::size_t n,
                             std::uint64_t* dirty) noexcept {
  constexpr std::size_t kCap = std::size_t{64} * T::kLanes;
  std::size_t count = 0;
  while (n >= kCap) {
    count += check_super<T>(words, dirty);
    words += kCap;
    dirty += T::kLanes;
    n -= kCap;
  }
  if (n != 0) {
    hw::Word72 wpad[kCap] = {};
    std::uint64_t mpad[T::kLanes];
    std::copy(words, words + n, wpad);
    count += check_super<T>(wpad, mpad);
    std::copy(mpad, mpad + (n + 63) / 64, dirty);
  }
  return count;
}

// Entry points of the AVX2 translation unit (ecc_avx2.cpp) — defined only
// when CMake compiles it (x86-64 + GNU/Clang + not AFT_FORCE_PORTABLE);
// referenced by ecc.cpp only under AFT_ECC_AVX2_BUILT.
void ecc_encode_batch_avx2(const std::uint64_t* data, std::size_t n,
                           hw::Word72* out) noexcept;
EccBatchCounts ecc_decode_batch_avx2(const hw::Word72* words, std::size_t n,
                                     std::uint64_t* data_out,
                                     EccStatus* status_out,
                                     hw::Word72* repaired_out) noexcept;
std::size_t ecc_check_batch_avx2(const hw::Word72* words, std::size_t n,
                                 std::uint64_t* dirty) noexcept;

}  // namespace aft::mem::detail
