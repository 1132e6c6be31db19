// M3 — duplex (mirrored) ECC storage with latch-up recovery, designed for
// assumption f3 ("SDRAM-like failure behaviors, including SEL").
//
// Two devices hold identical ECC codewords.  A single-event latch-up
// destroys one whole device; M3 detects the unavailable device, issues the
// power reset SEL recovery requires [12], rebuilds the fresh device from
// its healthy mirror, and keeps serving reads throughout.  Words that decode
// uncorrectably on one device are recovered from the other.
#pragma once

#include "hw/memory_chip.hpp"
#include "mem/access_method.hpp"
#include "mem/ecc.hpp"

namespace aft::mem {

class SelMirrorAccess final : public IMemoryAccessMethod {
 public:
  SelMirrorAccess(hw::MemoryChip& primary, hw::MemoryChip& mirror,
                  std::size_t words_per_scrub_step = 64);

  /// The component name of this method's trace records.
  static constexpr obs::Name kName = "M3-sel-mirror";

  [[nodiscard]] std::string_view name() const noexcept override { return kName; }
  [[nodiscard]] MethodCost cost() const noexcept override {
    return MethodCost{.storage_factor = 2.25,
                      .read_cost = 1.3,
                      .write_cost = 2.4,
                      .maintenance_cost = 0.2};
  }
  [[nodiscard]] bool tolerates(FailureSemantics f) const noexcept override {
    return f == FailureSemantics::kF0Stable ||
           f == FailureSemantics::kF1TransientCmos ||
           f == FailureSemantics::kF3SdramSel;
  }
  [[nodiscard]] std::size_t capacity_words() const noexcept override { return words_; }

  ReadResult read(std::size_t addr) override;
  bool write(std::size_t addr, std::uint64_t value) override;
  void scrub_step() override;

  [[nodiscard]] const MethodStats& stats() const noexcept override { return stats_; }

 private:
  /// Resets an unavailable device and copies every word from `source`.
  void recover_device(hw::MemoryChip& victim, hw::MemoryChip& source);

  /// Reads `addr` from `first`, falling back on `second` on unavailability
  /// or uncorrectable decode; repairs whichever side was wrong.
  ReadResult read_with_fallback(std::size_t addr, hw::MemoryChip& first,
                                hw::MemoryChip& second);

  /// Repairs one word on both sides during background scrubbing.
  void scrub_word(std::size_t addr);

  hw::MemoryChip& a_;
  hw::MemoryChip& b_;
  std::size_t words_;
  std::size_t words_per_scrub_step_;
  std::size_t scrub_cursor_ = 0;
  MethodStats stats_;
};

}  // namespace aft::mem
