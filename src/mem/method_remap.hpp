// M2 — ECC + stuck-at remapping, designed for assumption f2 ("permanent
// stuck-at faults and CMOS-like failure behaviors").
//
// Extends M1 with a spare region and a remap table: a cell whose error
// persists after write-back (the signature of a permanent stuck-at defect,
// as opposed to a transient flip) is retired and its logical address is
// remapped to a spare word — the software analogue of DRAM row sparing.
#pragma once

#include <unordered_map>
#include <vector>

#include "hw/memory_chip.hpp"
#include "mem/access_method.hpp"
#include "mem/ecc.hpp"

namespace aft::mem {

class EccRemapAccess final : public IMemoryAccessMethod {
 public:
  /// Reserves `spare_fraction` of the chip (rounded down, at least 1 word)
  /// as the spare pool; the rest is the logical address space.
  explicit EccRemapAccess(hw::MemoryChip& chip, double spare_fraction = 0.125,
                          std::size_t words_per_scrub_step = 64);

  /// The component name of this method's trace records.
  static constexpr obs::Name kName = "M2-ecc-remap";

  [[nodiscard]] std::string_view name() const noexcept override { return kName; }
  [[nodiscard]] MethodCost cost() const noexcept override {
    return MethodCost{.storage_factor = 1.125 / (1.0 - spare_fraction_),
                      .read_cost = 1.3,
                      .write_cost = 1.5,
                      .maintenance_cost = 0.15};
  }
  [[nodiscard]] bool tolerates(FailureSemantics f) const noexcept override {
    return f == FailureSemantics::kF0Stable ||
           f == FailureSemantics::kF1TransientCmos ||
           f == FailureSemantics::kF2StuckAtCmos;
  }
  [[nodiscard]] std::size_t capacity_words() const noexcept override {
    return logical_words_;
  }

  ReadResult read(std::size_t addr) override;
  bool write(std::size_t addr, std::uint64_t value) override;
  void scrub_step() override;

  [[nodiscard]] const MethodStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t spares_left() const noexcept { return free_spares_.size(); }

 private:
  /// Physical address currently backing logical `addr`.
  [[nodiscard]] std::size_t resolve(std::size_t addr) const;

  /// Verifies that `phys` retains `codeword`; on persistent mismatch moves
  /// the logical word to a spare.  Returns the (possibly new) physical
  /// address, or `phys` when no spare is left.
  std::size_t retire_if_stuck(std::size_t logical, std::size_t phys,
                              hw::Word72 codeword);

  hw::MemoryChip& chip_;
  double spare_fraction_;
  std::size_t logical_words_;
  std::size_t words_per_scrub_step_;
  std::size_t scrub_cursor_ = 0;
  std::unordered_map<std::size_t, std::size_t> remap_;
  std::vector<std::size_t> free_spares_;
  MethodStats stats_;
};

}  // namespace aft::mem
