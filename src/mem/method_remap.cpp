#include "mem/method_remap.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace aft::mem {

EccRemapAccess::EccRemapAccess(hw::MemoryChip& chip, double spare_fraction,
                               std::size_t words_per_scrub_step)
    : chip_(chip),
      spare_fraction_(spare_fraction),
      logical_words_(0),
      words_per_scrub_step_(words_per_scrub_step) {
  if (spare_fraction <= 0.0 || spare_fraction >= 1.0) {
    throw std::invalid_argument("EccRemapAccess: spare_fraction in (0,1)");
  }
  auto spares = static_cast<std::size_t>(
      static_cast<double>(chip.size_words()) * spare_fraction);
  if (spares == 0) spares = 1;
  if (spares >= chip.size_words()) {
    throw std::invalid_argument("EccRemapAccess: chip too small for spares");
  }
  logical_words_ = chip.size_words() - spares;
  free_spares_.reserve(spares);
  // Spares live at the top of the device; hand them out top-down.
  for (std::size_t s = chip.size_words(); s > logical_words_; --s) {
    free_spares_.push_back(s - 1);
  }
}

std::size_t EccRemapAccess::resolve(std::size_t addr) const {
  const auto it = remap_.find(addr);
  return it == remap_.end() ? addr : it->second;
}

std::size_t EccRemapAccess::retire_if_stuck(std::size_t logical, std::size_t phys,
                                            hw::Word72 codeword) {
  const hw::DeviceRead back = chip_.read(phys);
  if (!back.available || back.word == codeword) return phys;
  // The freshly written codeword did not stick: permanent defect.  Retire.
  if (free_spares_.empty()) return phys;
  const std::size_t spare = free_spares_.back();
  free_spares_.pop_back();
  remap_[logical] = spare;
  chip_.write(spare, codeword);
  ++stats_.remaps;
  AFT_METRIC_ADD("mem.remap.remaps", 1);
  AFT_TRACE(kName, "remap",
            {{"logical", logical},
             {"retired", phys},
             {"spare", spare},
             {"spares_left", free_spares_.size()}});
  // The spare itself may be defective too; recurse once per spare at most
  // (bounded by the spare pool size).
  return retire_if_stuck(logical, spare, codeword);
}

ReadResult EccRemapAccess::read(std::size_t addr) {
  if (addr >= logical_words_) throw std::out_of_range("EccRemapAccess address");
  ++stats_.reads;
  const std::size_t phys = resolve(addr);
  const hw::DeviceRead dev = chip_.read(phys);
  if (!dev.available) {
    ++stats_.data_losses;
    return ReadResult{ReadStatus::kUnavailable, 0};
  }
  const EccDecode dec = ecc_decode(dev.word);
  switch (dec.status) {
    case EccStatus::kClean:
      return ReadResult{ReadStatus::kOk, dec.data};
    case EccStatus::kCorrectedSingle: {
      ++stats_.corrected_singles;
      chip_.write(phys, dec.repaired);
      // If the repair does not stick the cell is stuck-at: retire it now,
      // while the data is still correctable.
      retire_if_stuck(addr, phys, dec.repaired);
      return ReadResult{ReadStatus::kCorrected, dec.data};
    }
    case EccStatus::kDetectedDouble:
      ++stats_.double_detected;
      ++stats_.data_losses;
      return ReadResult{ReadStatus::kUncorrectable, 0};
  }
  return ReadResult{ReadStatus::kUncorrectable, 0};
}

bool EccRemapAccess::write(std::size_t addr, std::uint64_t value) {
  if (addr >= logical_words_) throw std::out_of_range("EccRemapAccess address");
  ++stats_.writes;
  if (chip_.state() != hw::ChipState::kOperational) return false;
  const hw::Word72 codeword = ecc_encode(value);
  const std::size_t phys = resolve(addr);
  chip_.write(phys, codeword);
  retire_if_stuck(addr, phys, codeword);
  return true;
}

void EccRemapAccess::scrub_step() {
  if (chip_.state() != hw::ChipState::kOperational) return;
  // Walk only the logical words that still physically exist: after a chip
  // resize (shrink) the tail of the logical space — and any remap targets
  // in the vanished spare region — must be skipped, not faulted on.  The
  // stale-cursor clamp matters because the `==` wrap below never fires for
  // a cursor already past the end.
  const std::size_t logical = std::min(logical_words_, chip_.size_words());
  if (logical == 0 || words_per_scrub_step_ == 0) return;
  if (scrub_cursor_ >= logical) scrub_cursor_ = 0;

  for (std::size_t i = 0; i < words_per_scrub_step_; ++i) {
    const std::size_t addr = scrub_cursor_;
    if (++scrub_cursor_ == logical) scrub_cursor_ = 0;
    const std::size_t phys = resolve(addr);
    if (phys >= chip_.size_words()) continue;  // remap target vanished
    const hw::DeviceRead dev = chip_.read(phys);
    if (!dev.available) return;
    const EccDecode dec = ecc_decode(dev.word);
    if (dec.status == EccStatus::kCorrectedSingle) {
      ++stats_.corrected_singles;
      chip_.write(phys, dec.repaired);
      retire_if_stuck(addr, phys, dec.repaired);
    }
  }
}

}  // namespace aft::mem
