// Multi-channel heartbeat monitoring: N components emit periodic liveness
// beats; the monitor checks per-channel deadlines on the simulation kernel
// and feeds misses into a FaultDiscriminator, so each channel's fault class
// (transient glitch vs wedged) is judged independently by the alpha-count
// oracle — the many-component generalization of the Fig. 4 watchdog.
// Channels go by the discriminator's id, which watch() mints; the name
// lives only in the discriminator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "detect/discriminator.hpp"
#include "sim/simulator.hpp"

namespace aft::detect {

class HeartbeatMonitor {
 public:
  /// `on_missed(channel, consecutive_misses)` fires on every missed window.
  using MissHandler = std::function<void(ChannelId, std::uint64_t)>;

  HeartbeatMonitor(sim::Simulator& sim, FaultDiscriminator& discriminator);

  /// Registers a channel with the discriminator, with its own deadline,
  /// and starts its window checks.  Returns the discriminator's id for it.
  ChannelId watch(std::string name, sim::SimTime deadline);

  /// Re-watches a channel that watch(name) minted and unwatch() stopped
  /// (a watched one throws).  It starts a single fresh check chain:
  /// unwatch() cancels the earlier registration's pending check, so an
  /// unwatch()/watch() cycle cannot double-count windows.
  void watch(ChannelId channel, sim::SimTime deadline);

  /// Liveness beat from a component.  Unwatched channels throw.
  void beat(ChannelId channel);

  /// Stops checking a channel (e.g. after decommissioning the component).
  void unwatch(ChannelId channel) {
    Channel& ch = channels_.at(channel);
    ch.active = false;
    sim_.cancel(ch.check);
  }

  void set_miss_handler(MissHandler handler) { on_missed_ = std::move(handler); }

  [[nodiscard]] bool watching(ChannelId channel) const {
    return channel < channels_.size() && channels_[channel].active;
  }
  [[nodiscard]] std::uint64_t total_misses() const noexcept { return total_misses_; }
  [[nodiscard]] std::uint64_t consecutive_misses(ChannelId channel) const {
    return channels_.at(channel).consecutive_misses;
  }

 private:
  struct Channel {
    sim::SimTime deadline = 0;
    bool beaten = false;
    bool active = false;
    std::uint64_t consecutive_misses = 0;
    sim::Simulator::Handle check;  ///< the pending window check
  };

  void check(ChannelId channel);
  void schedule_check(ChannelId channel, sim::SimTime delay);

  sim::Simulator& sim_;
  FaultDiscriminator& discriminator_;
  std::vector<Channel> channels_;  ///< indexed by the discriminator's id
  MissHandler on_missed_;
  std::uint64_t total_misses_ = 0;
};

}  // namespace aft::detect
