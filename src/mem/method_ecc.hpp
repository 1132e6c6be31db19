// M1 — SEC-DED ECC with background scrubbing, designed for assumption f1
// ("transient faults and CMOS-like failure behaviors").
//
// Every word is stored as a Hamming (72,64) codeword; reads correct single
// flips on the fly and write the repaired codeword back; a scrubber walks
// the device so latent single flips are repaired before a second flip can
// accumulate into an uncorrectable double error.  The scrub pays for the
// errors it meets: a bit-sliced syndrome check (ecc_check_batch) finds the
// words that are not clean codewords, and only those go through the scalar
// decoder and a write-back.
#pragma once

#include "hw/memory_chip.hpp"
#include "mem/access_method.hpp"
#include "mem/ecc.hpp"

namespace aft::mem {

class EccScrubAccess final : public IMemoryAccessMethod {
 public:
  /// `words_per_scrub_step` bounds the work done by one scrub_step() call.
  explicit EccScrubAccess(hw::MemoryChip& chip, std::size_t words_per_scrub_step = 64);

  /// The component name of this method's trace records.
  static constexpr obs::Name kName = "M1-ecc-scrub";

  [[nodiscard]] std::string_view name() const noexcept override { return kName; }
  [[nodiscard]] MethodCost cost() const noexcept override {
    return MethodCost{.storage_factor = 1.125,
                      .read_cost = 1.2,
                      .write_cost = 1.2,
                      .maintenance_cost = 0.1};
  }
  [[nodiscard]] bool tolerates(FailureSemantics f) const noexcept override {
    return f == FailureSemantics::kF0Stable || f == FailureSemantics::kF1TransientCmos;
  }
  [[nodiscard]] std::size_t capacity_words() const noexcept override {
    return chip_.size_words();
  }

  ReadResult read(std::size_t addr) override;
  bool write(std::size_t addr, std::uint64_t value) override;
  void scrub_step() override;

  [[nodiscard]] const MethodStats& stats() const noexcept override { return stats_; }

 private:
  hw::MemoryChip& chip_;
  std::size_t words_per_scrub_step_;
  std::size_t scrub_cursor_ = 0;
  MethodStats stats_;
  // Patrol sweep timing on the obs logical clock ("mem.scrub.sweep_ticks"):
  // a sweep opens when the cursor leaves 0 and closes when it wraps back.
  std::uint64_t sweep_start_t_ = 0;
  bool sweep_open_ = false;
};

}  // namespace aft::mem
