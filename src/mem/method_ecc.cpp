#include "mem/method_ecc.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"

namespace aft::mem {

EccScrubAccess::EccScrubAccess(hw::MemoryChip& chip, std::size_t words_per_scrub_step)
    : chip_(chip), words_per_scrub_step_(words_per_scrub_step) {}

ReadResult EccScrubAccess::read(std::size_t addr) {
  ++stats_.reads;
  const hw::DeviceRead dev = chip_.read(addr);
  if (!dev.available) {
    ++stats_.data_losses;
    AFT_METRIC_ADD("mem.ecc.unavailable", 1);
    AFT_TRACE(kName, "unavailable", {{"addr", addr}});
    return ReadResult{ReadStatus::kUnavailable, 0};
  }
  const EccDecode dec = ecc_decode(dev.word);
  switch (dec.status) {
    case EccStatus::kClean:
      return ReadResult{ReadStatus::kOk, dec.data};
    case EccStatus::kCorrectedSingle:
      ++stats_.corrected_singles;
      chip_.write(addr, dec.repaired);  // demand scrub
      AFT_METRIC_ADD("mem.ecc.corrected", 1);
      AFT_TRACE(kName, "corrected", {{"addr", addr}, {"origin", "read"}});
      return ReadResult{ReadStatus::kCorrected, dec.data};
    case EccStatus::kDetectedDouble:
      ++stats_.double_detected;
      ++stats_.data_losses;
      AFT_METRIC_ADD("mem.ecc.uncorrectable", 1);
      AFT_TRACE(kName, "uncorrectable", {{"addr", addr}});
      return ReadResult{ReadStatus::kUncorrectable, 0};
  }
  return ReadResult{ReadStatus::kUncorrectable, 0};
}

bool EccScrubAccess::write(std::size_t addr, std::uint64_t value) {
  ++stats_.writes;
  if (chip_.state() != hw::ChipState::kOperational) return false;
  chip_.write(addr, ecc_encode(value));
  return true;
}

void EccScrubAccess::scrub_step() {
  if (chip_.state() != hw::ChipState::kOperational) return;
  const std::size_t words = chip_.size_words();
  // A zero-sized step must be a no-op (not an infinite re-scrub of word 0),
  // and a cursor left beyond the end by a chip resize must re-enter the
  // address space instead of faulting the next burst.
  if (words == 0 || words_per_scrub_step_ == 0) return;
  if (scrub_cursor_ >= words) scrub_cursor_ = 0;

  // Burst the walk: one read_block + one ecc_check_batch per run of up to
  // kEccBatchBurst words.  The sliced check only finds the words that are
  // not clean codewords; each of those is decoded by the scalar kernel, and
  // a corrected one is written back.  Trace/metric emission stays per
  // corrected word in ascending address order, so the observable stream is
  // byte-identical to the per-word walk.
  hw::Word72 buf[kEccBatchBurst];
  std::uint64_t dirty[kEccBatchBurst / kEccBatchLanes];
  std::size_t remaining = words_per_scrub_step_;
  obs::MetricsRegistry* const reg = obs::metrics();
  while (remaining > 0) {
    const std::size_t addr = scrub_cursor_;
    // Patrol sweep duration: a full pass over the device, measured on the
    // obs logical clock from the burst that leaves address 0 to the burst
    // that wraps the cursor back to it.
    if (addr == 0 && reg != nullptr) {
      sweep_open_ = true;
      sweep_start_t_ = obs::obs_time();
    }
    const std::size_t run = std::min({remaining, words - addr, kEccBatchBurst});
    if (!chip_.read_block(addr, run, buf)) return;
    if (ecc_check_batch(buf, run, dirty) != 0) {
      for (std::size_t m = 0; m * kEccBatchLanes < run; ++m) {
        for (std::uint64_t rest = dirty[m]; rest != 0; rest &= rest - 1) {
          const std::size_t i =
              m * kEccBatchLanes + static_cast<std::size_t>(std::countr_zero(rest));
          const EccDecode dec = ecc_decode(buf[i]);
          if (dec.status != EccStatus::kCorrectedSingle) continue;
          ++stats_.corrected_singles;
          chip_.write(addr + i, dec.repaired);
          AFT_METRIC_ADD("mem.ecc.corrected", 1);
          AFT_TRACE(kName, "corrected", {{"addr", addr + i}, {"origin", "scrub"}});
        }
      }
    }
    scrub_cursor_ = addr + run == words ? 0 : addr + run;
    if (scrub_cursor_ == 0 && sweep_open_ && reg != nullptr &&
        obs::obs_time() >= sweep_start_t_) {
      sweep_open_ = false;
      AFT_METRIC_OBSERVE("mem.scrub.sweep_ticks",
                         static_cast<double>(obs::obs_time() - sweep_start_t_));
    }
    remaining -= run;
  }
}

}  // namespace aft::mem
