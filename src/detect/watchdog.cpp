#include "detect/watchdog.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::detect {

Watchdog::Watchdog(sim::Simulator& sim, sim::SimTime deadline,
                   std::function<void(sim::SimTime)> on_fire)
    : sim_(sim), deadline_(deadline), on_fire_(std::move(on_fire)) {
  if (deadline == 0) throw std::invalid_argument("Watchdog: deadline must be > 0");
}

void Watchdog::start() {
  if (pending_ != sim::Simulator::Handle{}) return;  // running
  kicked_ = false;
  auto chain = [this] { check_window(); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "watchdog window chain must schedule allocation-free");
  pending_ = sim_.schedule_in(deadline_, std::move(chain));
}

void Watchdog::check_window() {
  const sim::Simulator::Handle self = pending_;
  ++windows_;
  if (!kicked_) {
    ++firings_;
    AFT_METRIC_ADD("detect.watchdog.firings", 1);
    AFT_TRACE("detect.watchdog", "fire",
              {{"window", windows_}, {"firings", firings_}});
    on_fire_(sim_.now());
  }
  kicked_ = false;
  // An on_fire handler that stopped (and perhaps restarted) the watchdog
  // ended this chain.
  if (pending_ == self) {
    pending_ = sim_.schedule_in(deadline_, [this] { check_window(); });
  }
}

WatchedTask::WatchedTask(sim::Simulator& sim, Watchdog& dog, sim::SimTime period)
    : sim_(sim), dog_(dog), period_(period) {
  if (period == 0) throw std::invalid_argument("WatchedTask: period must be > 0");
}

void WatchedTask::start() {
  if (pending_ != sim::Simulator::Handle{}) return;  // running
  auto chain = [this] { tick(); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "watched-task tick chain must schedule allocation-free");
  pending_ = sim_.schedule_in(period_, std::move(chain));
}

void WatchedTask::tick() {
  if (permanently_faulty_) {
    // The task is wedged: no kick, ever again.
  } else if (transient_misses_ > 0) {
    --transient_misses_;
  } else {
    dog_.kick();
    ++kicks_;
  }
  pending_ = sim_.schedule_in(period_, [this] { tick(); });
}

}  // namespace aft::detect
