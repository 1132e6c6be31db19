#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace aft::util {

std::uint64_t Histogram::count(std::int64_t key) const {
  const auto it = bins_.find(key);
  return it == bins_.end() ? 0 : it->second;
}

double Histogram::fraction(std::int64_t key) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(key)) / static_cast<double>(total_);
}

std::int64_t Histogram::mode() const {
  std::int64_t best_key = 0;
  std::uint64_t best_count = 0;
  for (const auto& [key, n] : bins_) {
    if (n > best_count) {
      best_count = n;
      best_key = key;
    }
  }
  return best_key;
}

std::string Histogram::render_log_scale(int max_width) const {
  if (max_width <= 0) {
    // A non-positive width would scale bars negative; casting that to
    // std::size_t below used to request a multi-exabyte string of '#'.
    throw std::invalid_argument("Histogram: max_width must be positive");
  }
  std::ostringstream out;
  // Scale bars by log10(n) + 1 rather than log10(n): with the latter a bin
  // holding a single sample maps to log10(1) = 0 and renders a zero-width
  // bar, indistinguishable from an empty bin.  The +1 offset gives every
  // non-empty bin at least one visible unit while preserving log spacing.
  double max_log = 0.0;
  for (const auto& [key, n] : bins_) {
    if (n > 0) {
      max_log = std::max(max_log, std::log10(static_cast<double>(n)) + 1.0);
    }
  }
  for (const auto& [key, n] : bins_) {
    const double log_n =
        n > 0 ? std::log10(static_cast<double>(n)) + 1.0 : 0.0;
    const int bar =
        max_log > 0.0
            ? static_cast<int>(std::lround(log_n / max_log * max_width))
            : 0;
    out << key << "\t| " << std::string(static_cast<std::size_t>(bar), '#')
        << "  " << n << " (" << fraction(key) * 100.0 << "%)\n";
  }
  return out.str();
}

}  // namespace aft::util
