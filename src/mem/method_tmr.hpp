// M4 — triple-modular-redundant ECC storage with voting, designed for
// assumption f4 ("SDRAM-like failure behaviors, including SEL and SEU").
//
// Three devices hold identical ECC codewords.  Reads decode all available
// copies and vote on the decoded data; minority or undecodable copies are
// repaired in place, unavailable devices (SEL/SEFI) are power-cycled and
// rebuilt from the majority.  This survives a whole-device loss concurrent
// with heavy upset rates on the survivors — the f4 environment.
#pragma once

#include <array>

#include "hw/memory_chip.hpp"
#include "mem/access_method.hpp"
#include "mem/ecc.hpp"

namespace aft::mem {

class TmrEccAccess final : public IMemoryAccessMethod {
 public:
  TmrEccAccess(hw::MemoryChip& c0, hw::MemoryChip& c1, hw::MemoryChip& c2,
               std::size_t words_per_scrub_step = 64);

  /// The component name of this method's trace records.
  static constexpr obs::Name kName = "M4-tmr-ecc";

  [[nodiscard]] std::string_view name() const noexcept override { return kName; }
  [[nodiscard]] MethodCost cost() const noexcept override {
    return MethodCost{.storage_factor = 3.375,
                      .read_cost = 3.6,
                      .write_cost = 3.6,
                      .maintenance_cost = 0.3};
  }
  [[nodiscard]] bool tolerates(FailureSemantics f) const noexcept override {
    // M4 masks every mode of f0..f4 except standalone stuck-at *claims*:
    // voting masks stuck cells too, so all five assumptions are covered.
    (void)f;
    return true;
  }
  [[nodiscard]] std::size_t capacity_words() const noexcept override { return words_; }

  ReadResult read(std::size_t addr) override;
  bool write(std::size_t addr, std::uint64_t value) override;
  void scrub_step() override;

  [[nodiscard]] const MethodStats& stats() const noexcept override { return stats_; }

 private:
  void recover_device(std::size_t victim_idx);
  ReadResult voted_read(std::size_t addr);

  std::array<hw::MemoryChip*, 3> chips_;
  std::size_t words_;
  std::size_t words_per_scrub_step_;
  std::size_t scrub_cursor_ = 0;
  MethodStats stats_;
};

}  // namespace aft::mem
