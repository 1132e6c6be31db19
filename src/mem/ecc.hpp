// Hamming SEC-DED (72,64) code: Single Error Correction, Double Error
// Detection — the classic x72 ECC DIMM code.  The fault-tolerant access
// methods M1..M4 of Sect. 3.1 build on this primitive.
//
// Layout: the 72-bit codeword occupies hw::Word72 bit indices 0..71.
// Indices 0..70 map to Hamming positions 1..71; parity bits sit at the
// power-of-two positions {1,2,4,8,16,32,64}; the remaining 64 positions
// carry data.  Bit index 71 holds the overall (even) parity used to tell
// single from double errors.
//
// Three implementations share this layout:
//   - ecc_encode/ecc_decode: the scalar kernel.  Compile-time 72-bit
//     parity-coverage tables plus a Hamming-position cascade fold turn every
//     parity/syndrome computation into a short chain of shifts and XORs, and
//     the 64 data bits move in six contiguous shift+mask runs, so both
//     directions are O(1) per word.
//   - ecc_encode_batch/ecc_decode_batch: the bit-sliced batch kernel.  64
//     codewords are transposed into 72 bit-planes and encoded/decoded in
//     bulk, so one 64-bit XOR advances 64 parity accumulations at once.
//     Ships a portable uint64_t implementation and an AVX2 variant (4 lanes,
//     256 words per superblock) selected at runtime via util::cpu_features().
//   - ecc_check_batch: the same sliced kernel stopped after the syndrome.
//     It only flags the words that are not clean codewords, so a caller
//     such as the patrol scrub can hand just those to ecc_decode.
//   - ecc_encode_ref/ecc_decode_ref: the original per-bit loops, retained as
//     the differential-testing oracle and the perf baseline for
//     bench/perf_ecc.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hw/memory_chip.hpp"

namespace aft::mem {

enum class EccStatus : std::uint8_t {
  kClean,             ///< no error
  kCorrectedSingle,   ///< one bit flipped, corrected
  kDetectedDouble,    ///< two-bit (or detectable multi-bit) error, NOT corrected
};

struct EccDecode {
  EccStatus status = EccStatus::kClean;
  std::uint64_t data = 0;
  /// For kCorrectedSingle: the codeword with the erroneous bit repaired,
  /// suitable for write-back (scrubbing).
  hw::Word72 repaired{};
};

/// Encodes 64 data bits into a 72-bit SEC-DED codeword (mask kernel).
[[nodiscard]] hw::Word72 ecc_encode(std::uint64_t data) noexcept;

/// Decodes a possibly corrupted codeword (mask kernel).
[[nodiscard]] EccDecode ecc_decode(hw::Word72 word) noexcept;

/// Reference bit-loop encoder — must produce codewords identical to
/// ecc_encode for every input.
[[nodiscard]] hw::Word72 ecc_encode_ref(std::uint64_t data) noexcept;

/// Reference bit-loop decoder — must agree with ecc_decode on every word.
[[nodiscard]] EccDecode ecc_decode_ref(hw::Word72 word) noexcept;

// ---------------------------------------------------------------------------
// Bit-sliced batch kernel.
// ---------------------------------------------------------------------------

/// Words per bit-slice block: one plane bit per word.
inline constexpr std::size_t kEccBatchLanes = 64;

/// Preferred burst size for callers feeding the batch entry points: a
/// multiple of every backend's superblock (the AVX2 variant processes four
/// 64-word blocks per pass), so bursts of this size never fall into the
/// zero-padded tail path.
inline constexpr std::size_t kEccBatchBurst = 4 * kEccBatchLanes;

/// One block of 64 codewords in bit-plane (transposed) form: bit i of
/// plane[b] is bit b of word i.  Planes 0..63 carry codeword lo bits,
/// planes 64..71 the check byte.
struct EccBlock {
  std::uint64_t plane[72];
};

/// Transposes up to kEccBatchLanes codewords into bit planes (missing words
/// slice as all-zero, which is itself a valid clean codeword).
void ecc_slice(const hw::Word72* words, std::size_t n, EccBlock& out) noexcept;

/// Inverse of ecc_slice: reassembles the first n words from the planes.
void ecc_unslice(const EccBlock& in, std::size_t n, hw::Word72* out) noexcept;

/// Per-word verdict totals of a batch decode.
struct EccBatchCounts {
  std::uint64_t corrected = 0;      ///< words with status kCorrectedSingle
  std::uint64_t uncorrectable = 0;  ///< words with status kDetectedDouble
};

/// Encodes n data words into n codewords via the bit-sliced kernel; any n
/// (tail blocks are zero-padded internally).  Bit-identical to ecc_encode
/// word by word.
void ecc_encode_batch(const std::uint64_t* data, std::size_t n,
                      hw::Word72* out) noexcept;

/// Decodes n possibly corrupted codewords in bulk with per-word verdicts —
/// a batch mixing clean, correctable, and uncorrectable words reports each
/// word's own status, exactly as per-word ecc_decode would:
/// status_out[i] mirrors EccDecode::status, data_out[i] EccDecode::data
/// (0 for kDetectedDouble), and repaired_out[i] — when repaired_out is not
/// null — EccDecode::repaired (the write-back codeword; Word72{} for
/// kDetectedDouble).  Returns the verdict totals.
EccBatchCounts ecc_decode_batch(const hw::Word72* words, std::size_t n,
                                std::uint64_t* data_out, EccStatus* status_out,
                                hw::Word72* repaired_out) noexcept;

/// Flags the words that are not clean codewords: sets bit i % 64 of
/// dirty[i / 64] exactly when ecc_decode(words[i]).status != kClean.  Writes
/// the ceil(n / 64) masks whole, with every bit at or past n clear, and
/// returns the number of flagged words.  Computes only the syndrome: no
/// data, no repair.
std::size_t ecc_check_batch(const hw::Word72* words, std::size_t n,
                            std::uint64_t* dirty) noexcept;

/// The portable (uint64_t, no SIMD) batch entry points, always available —
/// the dispatched entry points above fall back to these; exposed so tests
/// and benches can compare both paths on the same machine.
void ecc_encode_batch_portable(const std::uint64_t* data, std::size_t n,
                               hw::Word72* out) noexcept;
EccBatchCounts ecc_decode_batch_portable(const hw::Word72* words,
                                         std::size_t n,
                                         std::uint64_t* data_out,
                                         EccStatus* status_out,
                                         hw::Word72* repaired_out) noexcept;
std::size_t ecc_check_batch_portable(const hw::Word72* words, std::size_t n,
                                     std::uint64_t* dirty) noexcept;

enum class EccBackend : std::uint8_t {
  kPortable,  ///< uint64_t bit-slicing (always available)
  kAvx2,      ///< 4-lane AVX2 variant (x86-64, runtime-detected)
};

/// Which implementation the batch entry points (encode, decode, check)
/// dispatch to on this machine/build (see util::cpu_features() for the
/// override knobs).
[[nodiscard]] EccBackend ecc_batch_backend() noexcept;

}  // namespace aft::mem
