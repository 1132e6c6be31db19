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
  if (running()) return;
  AFT_TRACE("mem.scrub", "start", {{"period", period_}});
  auto chain = [this] { pass(); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "scrubber pass chain must schedule allocation-free");
  pending_ = sim_.schedule_in(period_, std::move(chain));
}

void ScrubberDaemon::set_period(sim::SimTime period) {
  if (period == 0) throw std::invalid_argument("ScrubberDaemon: period must be > 0");
  period_ = period;
}

void ScrubberDaemon::pass() {
  ++passes_;
  method_.scrub_step();
  AFT_METRIC_ADD("mem.scrub.passes", 1);
  if (obs::TraceSink* sink = obs::trace(); sink != nullptr && sink->detail()) {
    sink->emit("mem.scrub", "pass", {{"n", passes_}});
  }
  pending_ = sim_.schedule_in(period_, [this] { pass(); });
}

}  // namespace aft::mem
