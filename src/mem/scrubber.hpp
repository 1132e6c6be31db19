// Scrubber daemon: schedules a memory access method's background
// maintenance on the simulation kernel with a fixed cadence, so demand
// traffic and scrubbing interleave the way a real memory controller's
// patrol scrub does.  Latent-error accumulation between patrols is exactly
// the window in which a second upset turns correctable into uncorrectable —
// the cadence/robustness trade-off abl_memory_methods measures.
#pragma once

#include <cstdint>

#include "mem/access_method.hpp"
#include "sim/simulator.hpp"

namespace aft::mem {

class ScrubberDaemon {
 public:
  /// Runs `method.scrub_step()` every `period` ticks once started.
  ScrubberDaemon(sim::Simulator& sim, IMemoryAccessMethod& method,
                 sim::SimTime period);

  /// Starts the pass chain; stop() cancels its pending pass, so a
  /// stop()/start() cycle leaves one chain (two would double the scrub rate).
  void start();
  void stop() noexcept {
    sim_.cancel(pending_);
    pending_ = {};
  }

  [[nodiscard]] bool running() const noexcept {
    return pending_ != sim::Simulator::Handle{};
  }
  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }
  [[nodiscard]] sim::SimTime period() const noexcept { return period_; }

  /// Changes the cadence; takes effect from the next pass.
  void set_period(sim::SimTime period);

 private:
  void pass();

  sim::Simulator& sim_;
  IMemoryAccessMethod& method_;
  sim::SimTime period_;
  std::uint64_t passes_ = 0;
  sim::Simulator::Handle pending_;  ///< the next pass; empty when stopped
};

}  // namespace aft::mem
