// Watchdog timer over the simulation kernel — the left-hand window of the
// paper's Fig. 4: "a watchdog ... and a watched task ... the watchdog
// 'fires' and an alpha-count variable is updated."
//
// The watched task must kick() at least once per deadline window; a window
// with no kick makes the watchdog fire (one error signal per window).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"

namespace aft::detect {

class Watchdog {
 public:
  /// `on_fire(window_end_time)` runs for every missed window.
  Watchdog(sim::Simulator& sim, sim::SimTime deadline,
           std::function<void(sim::SimTime)> on_fire);

  /// Arms the watchdog (schedules the first window check).  Restarting
  /// after stop() opens a fresh window chain: stop() cancelled the previous
  /// arming's pending check, so stop()/start() churn can never leave two
  /// concurrent chains double-counting windows.
  void start();

  /// Disarms: the current window is never judged.
  void stop() noexcept {
    sim_.cancel(pending_);
    pending_ = {};
  }

  /// Heartbeat from the watched task.
  void kick() noexcept { kicked_ = true; }

  /// Lifetime telemetry, intentionally cumulative across stop()/start()
  /// cycles: they count observed events, and no verdict is derived from
  /// them (the alpha-count fed by on_fire holds the evidence).
  [[nodiscard]] std::uint64_t firings() const noexcept { return firings_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] sim::SimTime deadline() const noexcept { return deadline_; }

 private:
  void check_window();

  sim::Simulator& sim_;
  sim::SimTime deadline_;
  std::function<void(sim::SimTime)> on_fire_;
  bool kicked_ = false;
  sim::Simulator::Handle pending_;  ///< the next window check; empty when stopped
  std::uint64_t firings_ = 0;
  std::uint64_t windows_ = 0;
};

/// A watched task: kicks its watchdog every `period` ticks unless a fault
/// makes it skip.  Faults are scripted by the experiment: a *permanent*
/// design fault suppresses every kick from its onset (the Fig. 4 scenario);
/// a *transient* fault suppresses a bounded number of kicks.
class WatchedTask {
 public:
  WatchedTask(sim::Simulator& sim, Watchdog& dog, sim::SimTime period);

  /// Starts kicking; stop() cancels the pending tick, so a stop()/start()
  /// cycle leaves one tick chain.
  void start();
  void stop() noexcept {
    sim_.cancel(pending_);
    pending_ = {};
  }

  /// Injects a permanent design fault: the task stops kicking forever.
  void inject_permanent_fault() noexcept { permanently_faulty_ = true; }

  /// Injects a transient fault suppressing the next `missed_kicks` kicks.
  void inject_transient_fault(std::uint64_t missed_kicks) noexcept {
    transient_misses_ += missed_kicks;
  }

  /// Repairs the permanent fault (e.g. after reconfiguration to a spare).
  void repair() noexcept {
    permanently_faulty_ = false;
    transient_misses_ = 0;
  }

  [[nodiscard]] std::uint64_t kicks_delivered() const noexcept { return kicks_; }
  [[nodiscard]] bool faulty() const noexcept {
    return permanently_faulty_ || transient_misses_ > 0;
  }

 private:
  void tick();

  sim::Simulator& sim_;
  Watchdog& dog_;
  sim::SimTime period_;
  sim::Simulator::Handle pending_;  ///< the next tick; empty when stopped
  bool permanently_faulty_ = false;
  std::uint64_t transient_misses_ = 0;
  std::uint64_t kicks_ = 0;
};

}  // namespace aft::detect
