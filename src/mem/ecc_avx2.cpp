// AVX2 instantiation of the bit-sliced batch ECC kernel (ecc_sliced.hpp).
//
// Compiled only when CMake enables it (x86-64, GNU/Clang, not
// -DAFT_FORCE_PORTABLE) and then with -mavx2 for this file alone — the rest
// of the library stays baseline, and ecc.cpp only calls these entry points
// after util::cpu_features() confirms the silicon executes AVX2.
//
// The kernel itself is the shared template: V = __m256i gives 4 independent
// 64-bit lanes, i.e. a 256-word superblock where lane L carries words
// 64*L .. 64*L+63.  Only the lane ops below differ from ScalarTraits.
#include "mem/ecc_sliced.hpp"

#include <immintrin.h>

namespace aft::mem::detail {
namespace {

struct Avx2Traits {
  using V = __m256i;
  static constexpr unsigned kLanes = 4;

  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V bcast(std::uint64_t c) noexcept {
    return _mm256_set1_epi64x(static_cast<long long>(c));
  }
  static V vxor(V a, V b) noexcept { return _mm256_xor_si256(a, b); }
  static V vand(V a, V b) noexcept { return _mm256_and_si256(a, b); }
  static V vor(V a, V b) noexcept { return _mm256_or_si256(a, b); }
  static V vnot(V a) noexcept {
    return _mm256_xor_si256(a, _mm256_set1_epi64x(-1));
  }
  static V shl(V a, unsigned s) noexcept {
    return _mm256_slli_epi64(a, static_cast<int>(s));
  }
  static V shr(V a, unsigned s) noexcept {
    return _mm256_srli_epi64(a, static_cast<int>(s));
  }
  static bool any(V a) noexcept { return _mm256_testz_si256(a, a) == 0; }
  static void to_lanes(V a, std::uint64_t* out) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), a);
  }

  static V load_row(const hw::Word72* w, unsigned k) noexcept {
    return _mm256_set_epi64x(static_cast<long long>(w[k + 192].data),
                             static_cast<long long>(w[k + 128].data),
                             static_cast<long long>(w[k + 64].data),
                             static_cast<long long>(w[k].data));
  }
  static void store_row(V row, hw::Word72* w, unsigned k) noexcept {
    alignas(32) std::uint64_t t[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), row);
    w[k].data = t[0];
    w[k + 64].data = t[1];
    w[k + 128].data = t[2];
    w[k + 192].data = t[3];
  }
  static V load_data(const std::uint64_t* d, unsigned k) noexcept {
    return _mm256_set_epi64x(static_cast<long long>(d[k + 192]),
                             static_cast<long long>(d[k + 128]),
                             static_cast<long long>(d[k + 64]),
                             static_cast<long long>(d[k]));
  }
  static void store_data(V row, std::uint64_t* d, unsigned k) noexcept {
    alignas(32) std::uint64_t t[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), row);
    d[k] = t[0];
    d[k + 64] = t[1];
    d[k + 128] = t[2];
    d[k + 192] = t[3];
  }

  static std::uint64_t pack_checks(const hw::Word72* p) noexcept {
    std::uint64_t x = 0;
    for (unsigned r = 0; r < 8; ++r) {
      x |= static_cast<std::uint64_t>(p[r].check) << (8u * r);
    }
    return x;
  }
  static V load_check_group(const hw::Word72* w, unsigned g) noexcept {
    const hw::Word72* p = w + std::size_t{8} * g;
    return _mm256_set_epi64x(static_cast<long long>(pack_checks(p + 192)),
                             static_cast<long long>(pack_checks(p + 128)),
                             static_cast<long long>(pack_checks(p + 64)),
                             static_cast<long long>(pack_checks(p)));
  }
  static void store_check_group(V x, hw::Word72* w, unsigned g) noexcept {
    alignas(32) std::uint64_t t[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), x);
    hw::Word72* p = w + std::size_t{8} * g;
    for (unsigned L = 0; L < 4; ++L) {
      for (unsigned r = 0; r < 8; ++r) {
        p[64 * L + r].check =
            static_cast<std::uint8_t>((t[L] >> (8u * r)) & 0xFFu);
      }
    }
  }
};

}  // namespace

void ecc_encode_batch_avx2(const std::uint64_t* data, std::size_t n,
                           hw::Word72* out) noexcept {
  encode_batch_impl<Avx2Traits>(data, n, out);
}

EccBatchCounts ecc_decode_batch_avx2(const hw::Word72* words, std::size_t n,
                                     std::uint64_t* data_out,
                                     EccStatus* status_out,
                                     hw::Word72* repaired_out) noexcept {
  return decode_batch_impl<Avx2Traits>(words, n, data_out, status_out,
                                       repaired_out);
}

std::size_t ecc_check_batch_avx2(const hw::Word72* words, std::size_t n,
                                 std::uint64_t* dirty) noexcept {
  return check_batch_impl<Avx2Traits>(words, n, dirty);
}

}  // namespace aft::mem::detail
