#include "mem/method_mirror.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace aft::mem {

SelMirrorAccess::SelMirrorAccess(hw::MemoryChip& primary, hw::MemoryChip& mirror,
                                 std::size_t words_per_scrub_step)
    : a_(primary),
      b_(mirror),
      words_(std::min(primary.size_words(), mirror.size_words())),
      words_per_scrub_step_(words_per_scrub_step) {
  if (&primary == &mirror) {
    throw std::invalid_argument("SelMirrorAccess: mirror must be a distinct device");
  }
}

void SelMirrorAccess::recover_device(hw::MemoryChip& victim, hw::MemoryChip& source) {
  victim.power_cycle();
  ++stats_.power_cycles;
  AFT_METRIC_ADD("mem.mirror.power_cycles", 1);
  AFT_TRACE(kName, "power-cycle", {{"victim", &victim == &a_ ? "a" : "b"}});
  if (source.state() != hw::ChipState::kOperational) return;  // nothing to copy
  // Clamp to the devices' current sizes: a resized (shrunk) chip must not
  // turn the rebuild copy loop into an out-of-range fault.
  const std::size_t copy_words =
      std::min({words_, source.size_words(), victim.size_words()});
  for (std::size_t w = 0; w < copy_words; ++w) {
    const hw::DeviceRead dev = source.read(w);
    if (dev.available) victim.write(w, dev.word);
  }
  ++stats_.rebuilds;
  AFT_METRIC_ADD("mem.mirror.rebuilds", 1);
  AFT_TRACE(kName, "rebuild",
            {{"victim", &victim == &a_ ? "a" : "b"}, {"words", copy_words}});
}

ReadResult SelMirrorAccess::read_with_fallback(std::size_t addr,
                                               hw::MemoryChip& first,
                                               hw::MemoryChip& second) {
  bool first_needs_repair = false;
  const hw::DeviceRead dev = first.read(addr);
  if (dev.available) {
    const EccDecode dec = ecc_decode(dev.word);
    if (dec.status == EccStatus::kClean) {
      return ReadResult{ReadStatus::kOk, dec.data};
    }
    if (dec.status == EccStatus::kCorrectedSingle) {
      ++stats_.corrected_singles;
      first.write(addr, dec.repaired);
      return ReadResult{ReadStatus::kCorrected, dec.data};
    }
    ++stats_.double_detected;
    first_needs_repair = true;  // word lost on `first`; try the mirror
  } else {
    // SEL/SEFI on `first`: recover the whole device from the mirror.
    recover_device(first, second);
  }

  const hw::DeviceRead dev2 = second.read(addr);
  if (!dev2.available) {
    // Both sides down simultaneously: reset `second` too (data is lost).
    recover_device(second, first);
    ++stats_.data_losses;
    AFT_METRIC_ADD("mem.mirror.data_losses", 1);
    AFT_TRACE(kName, "data-loss", {{"addr", addr}, {"cause", "both-down"}});
    return ReadResult{ReadStatus::kUnavailable, 0};
  }
  const EccDecode dec2 = ecc_decode(dev2.word);
  if (dec2.status == EccStatus::kDetectedDouble) {
    ++stats_.double_detected;
    ++stats_.data_losses;
    AFT_METRIC_ADD("mem.mirror.data_losses", 1);
    AFT_TRACE(kName, "data-loss", {{"addr", addr}, {"cause", "double-double"}});
    return ReadResult{ReadStatus::kUncorrectable, 0};
  }
  if (dec2.status == EccStatus::kCorrectedSingle) {
    ++stats_.corrected_singles;
    second.write(addr, dec2.repaired);
  }
  if (first_needs_repair && first.state() == hw::ChipState::kOperational) {
    first.write(addr, dec2.status == EccStatus::kCorrectedSingle ? dec2.repaired
                                                                 : dev2.word);
  }
  ++stats_.recoveries;
  return ReadResult{ReadStatus::kRecovered, dec2.data};
}

ReadResult SelMirrorAccess::read(std::size_t addr) {
  if (addr >= words_) throw std::out_of_range("SelMirrorAccess address");
  ++stats_.reads;
  return read_with_fallback(addr, a_, b_);
}

bool SelMirrorAccess::write(std::size_t addr, std::uint64_t value) {
  if (addr >= words_) throw std::out_of_range("SelMirrorAccess address");
  ++stats_.writes;
  const hw::Word72 codeword = ecc_encode(value);
  bool durable = false;
  for (hw::MemoryChip* chip : {&a_, &b_}) {
    if (chip->state() == hw::ChipState::kOperational) {
      chip->write(addr, codeword);
      durable = true;
    }
  }
  return durable;
}

void SelMirrorAccess::scrub_step() {
  // Device-level health check first: a latched/halted *mirror* would
  // otherwise stay undetected as long as the primary keeps serving reads —
  // and a later primary SEL would then destroy the last good copy.  This is
  // the software analogue of the latch-up current sensor.
  if (a_.state() != hw::ChipState::kOperational) recover_device(a_, b_);
  if (b_.state() != hw::ChipState::kOperational) recover_device(b_, a_);

  // Revalidate the mirrored extent against the devices' *current* sizes: a
  // chip resize shrinks the usable window, and a stale words_/cursor pair
  // would walk the scrub off the end of the smaller device.  (The `==`
  // wrap alone never catches a cursor already past the end.)
  words_ = std::min(a_.size_words(), b_.size_words());
  if (words_ == 0 || words_per_scrub_step_ == 0) return;
  if (scrub_cursor_ >= words_) scrub_cursor_ = 0;

  for (std::size_t i = 0; i < words_per_scrub_step_; ++i) {
    const std::size_t addr = scrub_cursor_;
    if (++scrub_cursor_ == words_) scrub_cursor_ = 0;
    scrub_word(addr);
  }
}

void SelMirrorAccess::scrub_word(std::size_t addr) {
  const hw::DeviceRead ra = a_.read(addr);
  const hw::DeviceRead rb = b_.read(addr);
  if (!ra.available || !rb.available) return;  // device scrub handles these

  const EccDecode da = ecc_decode(ra.word);
  const EccDecode db = ecc_decode(rb.word);

  // Establish the canonical codeword from whichever side decodes.
  const bool a_good = da.status != EccStatus::kDetectedDouble;
  const bool b_good = db.status != EccStatus::kDetectedDouble;
  if (!a_good && !b_good) return;  // word lost on both; demand read reports it

  hw::Word72 canonical{};
  if (a_good) {
    canonical = da.status == EccStatus::kCorrectedSingle ? da.repaired : ra.word;
  } else {
    canonical = db.status == EccStatus::kCorrectedSingle ? db.repaired : rb.word;
  }

  if (da.status == EccStatus::kCorrectedSingle) ++stats_.corrected_singles;
  if (db.status == EccStatus::kCorrectedSingle) ++stats_.corrected_singles;
  if (!a_good || da.status == EccStatus::kCorrectedSingle) a_.write(addr, canonical);
  if (!b_good || !(rb.word == canonical)) b_.write(addr, canonical);
}

}  // namespace aft::mem
