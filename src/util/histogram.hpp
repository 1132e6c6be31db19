// Integer-keyed histogram with logarithmic text rendering.
//
// Used to regenerate Figure 7 of the paper: "Histogram of the employed
// redundancy during an experiment ... A logarithmic scale is used for time
// steps."
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace aft::util {

/// Counts occurrences of integer keys (e.g. redundancy degrees) and renders
/// them as a log-scale ASCII bar chart comparable to the paper's Fig. 7.
class Histogram {
 public:
  /// Adds `weight` observations of `key`.  Adding the key added last (the
  /// Fig. 7 loop adds one arity round after round) skips the map lookup.
  void add(std::int64_t key, std::uint64_t weight = 1) {
    if (last_.bin == nullptr || last_.bin->first != key) {
      last_.bin = &*bins_.try_emplace(key).first;
    }
    last_.bin->second += weight;
    total_ += weight;
  }

  /// Total number of observations across all keys.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Observations recorded for `key` (0 when never seen).
  [[nodiscard]] std::uint64_t count(std::int64_t key) const;

  /// Fraction of all observations that carry `key`, in [0,1].
  /// Returns 0 when the histogram is empty.
  [[nodiscard]] double fraction(std::int64_t key) const;

  /// Key with the largest count; 0 when empty.
  [[nodiscard]] std::int64_t mode() const;

  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& bins() const noexcept {
    return bins_;
  }

  /// Renders an ASCII bar chart; bar length is proportional to
  /// log10(count), mirroring the paper's log-scale y axis.
  /// Throws std::invalid_argument when max_width is not positive.
  [[nodiscard]] std::string render_log_scale(int max_width = 60) const;

 private:
  using Bins = std::map<std::int64_t, std::uint64_t>;

  /// The bin add() touched last.  It points into its own histogram's map,
  /// so a copy or move of the histogram, on either side, starts without it.
  struct LastBin {
    Bins::value_type* bin = nullptr;

    LastBin() = default;
    LastBin(const LastBin&) noexcept {}
    LastBin(LastBin&& other) noexcept { other.bin = nullptr; }
    LastBin& operator=(const LastBin&) noexcept {
      bin = nullptr;
      return *this;
    }
    LastBin& operator=(LastBin&& other) noexcept {
      bin = nullptr;
      other.bin = nullptr;
      return *this;
    }
  };

  Bins bins_;
  std::uint64_t total_ = 0;
  LastBin last_;
};

}  // namespace aft::util
