#include "mem/scrubber.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace aft::mem {

ScrubberDaemon::ScrubberDaemon(sim::Simulator& sim, IMemoryAccessMethod& method,
                               sim::SimTime period)
    : sim_(sim), method_(method), period_(period) {
  if (period == 0) throw std::invalid_argument("ScrubberDaemon: period must be > 0");
}

void ScrubberDaemon::start() {
  if (running_) return;
  running_ = true;
  const std::uint64_t epoch = ++epoch_;
  AFT_TRACE("mem.scrub", "start", {{"period", period_}});
  auto chain = [this, epoch] { pass(epoch); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "scrubber pass chain must schedule allocation-free");
  sim_.schedule_in(period_, std::move(chain));
}

void ScrubberDaemon::set_period(sim::SimTime period) {
  if (period == 0) throw std::invalid_argument("ScrubberDaemon: period must be > 0");
  period_ = period;
}

void ScrubberDaemon::pass(std::uint64_t epoch) {
  if (!running_ || epoch != epoch_) return;
  ++passes_;
  method_.scrub_step();
  AFT_METRIC_ADD("mem.scrub.passes", 1);
  if (obs::TraceSink* sink = obs::trace(); sink != nullptr && sink->detail()) {
    sink->emit("mem.scrub", "pass", {{"n", passes_}});
  }
  sim_.schedule_in(period_, [this, epoch] { pass(epoch); });
}

}  // namespace aft::mem
