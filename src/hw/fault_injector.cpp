#include "hw/fault_injector.hpp"

#include "obs/obs.hpp"

namespace aft::hw {

namespace {

/// Records one injected fault and installs the record as the sink's current
/// cause, so everything the fault sets in motion — detector verdicts, scrub
/// repairs, reconfigurations — carries a causal chain that `aft_trace why`
/// can walk back to this injection.
void mark_injection(const char* event,
                    std::initializer_list<obs::Field> fields) {
  AFT_METRIC_ADD("hw.injections", 1);
  if (obs::TraceSink* sink = obs::trace(); sink != nullptr) {
    const obs::EventId id = sink->emit("hw.inject", event, fields);
    if (id != obs::kNoEvent) sink->set_cause(id);
  } else {
    obs::flight_note("hw.inject", event);
  }
}

}  // namespace

namespace profiles {

FaultProfile stable() { return FaultProfile{}; }

FaultProfile cmos() {
  FaultProfile p;
  p.seu_rate = 1e-5;  // rare independent single-bit soft errors [11]
  return p;
}

FaultProfile cmos_aging() {
  FaultProfile p = cmos();
  p.stuck_rate = 2e-6;  // wear-out produces permanent stuck-at cells
  return p;
}

FaultProfile sdram_sel() {
  FaultProfile p;
  p.seu_rate = 5e-5;
  p.sel_rate = 1e-6;  // latch-up: rare but catastrophic [12]
  return p;
}

FaultProfile sdram_sel_seu() {
  FaultProfile p;
  p.seu_rate = 5e-4;  // "frequent soft errors" [13,14]
  p.multi_bit_fraction = 0.05;
  p.sel_rate = 1e-6;
  p.sefi_rate = 5e-7;  // [15]
  return p;
}

}  // namespace profiles

FaultProfile scaled(FaultProfile profile, double factor) noexcept {
  profile.seu_rate *= factor;
  profile.sel_rate *= factor;
  profile.sefi_rate *= factor;
  profile.stuck_rate *= factor;
  // multi_bit_fraction is a conditional probability, not a rate: unscaled.
  return profile;
}

FaultInjector::FaultInjector(MemoryChip& chip, FaultProfile profile,
                             std::uint64_t seed)
    : chip_(chip), profile_(profile), rng_(seed) {}

void FaultInjector::inject_seu() {
  const auto addr = static_cast<std::size_t>(
      rng_.uniform_int(0, chip_.size_words() - 1));
  const auto bit = static_cast<unsigned>(
      rng_.uniform_int(0, MemoryChip::kBitsPerWord - 1));
  chip_.inject_bit_flip(addr, bit);
  ++log_.seu;
  mark_injection("seu", {{"addr", addr}, {"bit", bit}});
  if (profile_.multi_bit_fraction > 0 &&
      rng_.bernoulli(profile_.multi_bit_fraction)) {
    // Adjacent-cell upset: flip the neighbouring bit too.
    const unsigned neighbour = bit + 1 < MemoryChip::kBitsPerWord ? bit + 1 : bit - 1;
    chip_.inject_bit_flip(addr, neighbour);
    ++log_.multi_bit;
    mark_injection("multi-bit", {{"addr", addr}, {"bit", neighbour}});
  }
}

bool FaultInjector::tick() {
  bool any = false;
  if (profile_.seu_rate > 0 && rng_.bernoulli(profile_.seu_rate)) {
    inject_seu();
    any = true;
  }
  if (profile_.stuck_rate > 0 && rng_.bernoulli(profile_.stuck_rate)) {
    const auto addr = static_cast<std::size_t>(
        rng_.uniform_int(0, chip_.size_words() - 1));
    const auto bit = static_cast<unsigned>(
        rng_.uniform_int(0, MemoryChip::kBitsPerWord - 1));
    chip_.inject_stuck_at(addr, bit, rng_.bernoulli(0.5));
    ++log_.stuck;
    mark_injection("stuck", {{"addr", addr}, {"bit", bit}});
    any = true;
  }
  if (profile_.sel_rate > 0 && rng_.bernoulli(profile_.sel_rate)) {
    chip_.inject_latch_up();
    ++log_.sel;
    mark_injection("sel", {});
    any = true;
  }
  if (profile_.sefi_rate > 0 && rng_.bernoulli(profile_.sefi_rate)) {
    chip_.inject_sefi();
    ++log_.sefi;
    mark_injection("sefi", {});
    any = true;
  }
  return any;
}

void FaultInjector::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) tick();
}

}  // namespace aft::hw
