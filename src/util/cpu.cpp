#include "util/cpu.hpp"

#include <cstdlib>

namespace aft::util {
namespace {

// A -DAFT_FORCE_PORTABLE build never reads the environment knob, and an
// unused function would fail its -Werror build.
#if !defined(AFT_FORCE_PORTABLE)
bool env_forces_portable() noexcept {
  const char* v = std::getenv("AFT_FORCE_PORTABLE");
  if (v == nullptr || v[0] == '\0') return false;
  return !(v[0] == '0' && v[1] == '\0');
}
#endif

CpuFeatures detect() noexcept {
  CpuFeatures f;
#if defined(AFT_FORCE_PORTABLE)
  f.forced_portable = true;
#else
  f.forced_portable = env_forces_portable();
#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (!f.forced_portable) f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures f = detect();
  return f;
}

}  // namespace aft::util
