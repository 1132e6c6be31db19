#include "mem/ecc.hpp"

#include <algorithm>

#include "mem/ecc_layout.hpp"
#include "mem/ecc_sliced.hpp"
#include "util/cpu.hpp"

namespace aft::mem {
namespace {

using detail::gather_data;
using detail::kDataBits;
using detail::kOverallParityBit;
using detail::kParityMasks;
using detail::kParityPositions;
using detail::kPositions;
using detail::kSyndromeToBit;
using detail::masked_parity;
using detail::overall_parity_fold;
using detail::scatter_data;
using detail::syndrome_cascade;

// ---------------------------------------------------------------------------
// Reference (bit-loop) helpers, kept verbatim for the _ref entry points.
// ---------------------------------------------------------------------------

/// XOR of the Hamming positions (1-based) of all set bits in indices 0..70.
unsigned syndrome_of(const hw::Word72& w) noexcept {
  unsigned s = 0;
  for (unsigned p = 1; p <= kPositions; ++p) {
    if (hw::get_bit(w, p - 1)) s ^= p;
  }
  return s;
}

bool overall_parity(const hw::Word72& w) noexcept {
  bool parity = false;
  for (unsigned b = 0; b <= kOverallParityBit; ++b) {
    parity ^= hw::get_bit(w, b);
  }
  return parity;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar kernel: masked folds for encode, one Hamming-position cascade for
// the decode syndrome (syndrome + overall parity in ~60 ops), O(1)
// scatter/gather.
// ---------------------------------------------------------------------------

hw::Word72 ecc_encode(std::uint64_t data) noexcept {
  hw::Word72 w = scatter_data(data);
  // The parity positions are still zero, so each fold yields exactly the XOR
  // of the covered data bits; distinct powers of two never cover each other,
  // so the seven folds are independent.  All seven parity bits (indices
  // 0,1,3,7,15,31,63) live in the lo word.
  std::uint64_t parity_bits = 0;
  for (unsigned j = 0; j < 7; ++j) {
    if (masked_parity(w, kParityMasks[j])) {
      parity_bits |= std::uint64_t{1} << (kParityPositions[j] - 1);
    }
  }
  w.data |= parity_bits;
  // Overall even parity across all 72 bits, one XOR fold (bit 71 itself is
  // still clear here).
  w.check = static_cast<std::uint8_t>(
      w.check | (static_cast<unsigned>(overall_parity_fold(w)) << 7));
  return w;
}

EccDecode ecc_decode(hw::Word72 word) noexcept {
  const unsigned sc = syndrome_cascade(word);
  const unsigned s = sc & 0x7Fu;
  const bool odd_overall = (sc & 0x80u) != 0;

  EccDecode out;
  if (sc == 0) {
    out.status = EccStatus::kClean;
  } else if (odd_overall) {
    // Odd number of flipped bits; under the SEC-DED fault hypothesis this is
    // a single-bit error at position s (or in the overall parity bit when
    // s == 0).
    if (s == 0) {
      word.check = static_cast<std::uint8_t>(word.check ^ 0x80u);
    } else {
      const std::int8_t idx = kSyndromeToBit[s];
      if (idx < 0) {
        out.status = EccStatus::kDetectedDouble;
        return out;
      }
      if (idx < 64) {
        word.data ^= std::uint64_t{1} << static_cast<unsigned>(idx);
      } else {
        word.check = static_cast<std::uint8_t>(
            word.check ^ (1u << (static_cast<unsigned>(idx) - 64)));
      }
    }
    out.status = EccStatus::kCorrectedSingle;
  } else {
    // Even number of errors (>= 2): detectable, not correctable.
    out.status = EccStatus::kDetectedDouble;
    return out;
  }

  out.repaired = word;
  out.data = gather_data(word);
  return out;
}

// ---------------------------------------------------------------------------
// Reference implementation: the original per-bit loops, retained for
// differential testing and as the baseline bench/perf_ecc measures against.
// ---------------------------------------------------------------------------

hw::Word72 ecc_encode_ref(std::uint64_t data) noexcept {
  hw::Word72 w{};
  for (unsigned i = 0; i < 64; ++i) {
    hw::set_bit(w, kDataBits[i], ((data >> i) & 1u) != 0);
  }
  // Each parity bit makes the XOR over its covered positions zero.
  for (unsigned p : kParityPositions) {
    bool parity = false;
    for (unsigned q = 1; q <= kPositions; ++q) {
      if (q != p && (q & p) != 0 && hw::get_bit(w, q - 1)) parity = !parity;
    }
    hw::set_bit(w, p - 1, parity);
  }
  // Overall even parity across all 72 bits; bit 71 is still clear, so one
  // XOR fold over positions 0..70 yields its value directly.
  bool parity = false;
  for (unsigned b = 0; b < kOverallParityBit; ++b) {
    parity ^= hw::get_bit(w, b);
  }
  hw::set_bit(w, kOverallParityBit, parity);
  return w;
}

EccDecode ecc_decode_ref(hw::Word72 word) noexcept {
  const unsigned s = syndrome_of(word);
  const bool odd_overall = overall_parity(word);

  EccDecode out;
  if (s == 0 && !odd_overall) {
    out.status = EccStatus::kClean;
    out.repaired = word;
  } else if (odd_overall) {
    if (s == 0) {
      hw::flip_bit(word, kOverallParityBit);
    } else if (s <= kPositions) {
      hw::flip_bit(word, s - 1);
    } else {
      out.status = EccStatus::kDetectedDouble;
      return out;
    }
    out.status = EccStatus::kCorrectedSingle;
    out.repaired = word;
  } else {
    out.status = EccStatus::kDetectedDouble;
    return out;
  }

  std::uint64_t data = 0;
  for (unsigned i = 0; i < 64; ++i) {
    if (hw::get_bit(word, kDataBits[i])) data |= std::uint64_t{1} << i;
  }
  out.data = data;
  return out;
}

// ---------------------------------------------------------------------------
// Bit-sliced batch kernel: portable entry points + runtime dispatch.
// ---------------------------------------------------------------------------

void ecc_slice(const hw::Word72* words, std::size_t n, EccBlock& out) noexcept {
  if (n >= kEccBatchLanes) {
    detail::slice_words<detail::ScalarTraits>(words, out.plane);
    return;
  }
  hw::Word72 pad[kEccBatchLanes] = {};
  std::copy(words, words + n, pad);
  detail::slice_words<detail::ScalarTraits>(pad, out.plane);
}

void ecc_unslice(const EccBlock& in, std::size_t n, hw::Word72* out) noexcept {
  if (n >= kEccBatchLanes) {
    detail::unslice_words<detail::ScalarTraits>(in.plane, out);
    return;
  }
  hw::Word72 full[kEccBatchLanes];
  detail::unslice_words<detail::ScalarTraits>(in.plane, full);
  std::copy(full, full + n, out);
}

void ecc_encode_batch_portable(const std::uint64_t* data, std::size_t n,
                               hw::Word72* out) noexcept {
  detail::encode_batch_impl<detail::ScalarTraits>(data, n, out);
}

EccBatchCounts ecc_decode_batch_portable(const hw::Word72* words,
                                         std::size_t n, std::uint64_t* data_out,
                                         EccStatus* status_out,
                                         hw::Word72* repaired_out) noexcept {
  return detail::decode_batch_impl<detail::ScalarTraits>(
      words, n, data_out, status_out, repaired_out);
}

std::size_t ecc_check_batch_portable(const hw::Word72* words, std::size_t n,
                                     std::uint64_t* dirty) noexcept {
  return detail::check_batch_impl<detail::ScalarTraits>(words, n, dirty);
}

namespace {

bool batch_uses_avx2() noexcept {
#if defined(AFT_ECC_AVX2_BUILT)
  return util::cpu_features().avx2;
#else
  return false;
#endif
}

}  // namespace

EccBackend ecc_batch_backend() noexcept {
  return batch_uses_avx2() ? EccBackend::kAvx2 : EccBackend::kPortable;
}

void ecc_encode_batch(const std::uint64_t* data, std::size_t n,
                      hw::Word72* out) noexcept {
#if defined(AFT_ECC_AVX2_BUILT)
  if (util::cpu_features().avx2) {
    detail::ecc_encode_batch_avx2(data, n, out);
    return;
  }
#endif
  ecc_encode_batch_portable(data, n, out);
}

EccBatchCounts ecc_decode_batch(const hw::Word72* words, std::size_t n,
                                std::uint64_t* data_out, EccStatus* status_out,
                                hw::Word72* repaired_out) noexcept {
#if defined(AFT_ECC_AVX2_BUILT)
  if (util::cpu_features().avx2) {
    return detail::ecc_decode_batch_avx2(words, n, data_out, status_out,
                                         repaired_out);
  }
#endif
  return ecc_decode_batch_portable(words, n, data_out, status_out,
                                   repaired_out);
}

std::size_t ecc_check_batch(const hw::Word72* words, std::size_t n,
                            std::uint64_t* dirty) noexcept {
#if defined(AFT_ECC_AVX2_BUILT)
  if (util::cpu_features().avx2) {
    return detail::ecc_check_batch_avx2(words, n, dirty);
  }
#endif
  return ecc_check_batch_portable(words, n, dirty);
}

}  // namespace aft::mem
