#include "detect/heartbeat.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace aft::detect {

HeartbeatMonitor::HeartbeatMonitor(sim::Simulator& sim,
                                   FaultDiscriminator& discriminator)
    : sim_(sim), discriminator_(discriminator) {}

ChannelId HeartbeatMonitor::watch(std::string name, sim::SimTime deadline) {
  if (deadline == 0) {
    throw std::invalid_argument("HeartbeatMonitor: deadline must be > 0");
  }
  const ChannelId channel = discriminator_.add(std::move(name));
  if (channel >= channels_.size()) channels_.resize(channel + 1);
  watch(channel, deadline);
  return channel;
}

void HeartbeatMonitor::watch(ChannelId channel, sim::SimTime deadline) {
  if (deadline == 0) {
    throw std::invalid_argument("HeartbeatMonitor: deadline must be > 0");
  }
  Channel& ch = channels_.at(channel);
  if (ch.active) {
    throw std::invalid_argument("HeartbeatMonitor: channel already watched");
  }
  ch = Channel{deadline, false, true, 0, {}};
  AFT_TRACE("detect.heartbeat", "watch",
            {{"channel", discriminator_.name(channel)}, {"deadline", deadline}});
  schedule_check(channel, deadline);
}

void HeartbeatMonitor::beat(ChannelId channel) {
  if (!watching(channel)) {
    throw std::invalid_argument("HeartbeatMonitor: beat on unwatched channel");
  }
  channels_[channel].beaten = true;
}

void HeartbeatMonitor::schedule_check(ChannelId channel, sim::SimTime delay) {
  // {this, id} and no name: the continuation fits the kernel's inline
  // budget whatever the channel names, so no window allocates.
  auto chain = [this, channel] { check(channel); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "heartbeat check chain must schedule allocation-free");
  channels_[channel].check = sim_.schedule_in(delay, std::move(chain));
}

void HeartbeatMonitor::check(ChannelId channel) {
  Channel& ch = channels_[channel];
  const sim::Simulator::Handle self = ch.check;
  const bool missed = !ch.beaten;
  ch.beaten = false;
  if (missed) {
    ++total_misses_;
    ++ch.consecutive_misses;
    AFT_METRIC_ADD("detect.heartbeat.misses", 1);
    AFT_TRACE("detect.heartbeat", "miss",
              {{"channel", discriminator_.name(channel)},
               {"consecutive", ch.consecutive_misses}});
    if (on_missed_) on_missed_(channel, ch.consecutive_misses);
  } else {
    ch.consecutive_misses = 0;
  }
  // Every window is one alpha-count judgment round for this channel.
  discriminator_.record(channel, missed);
  // A miss handler that unwatched (and perhaps re-watched) the channel
  // ended this chain.
  const Channel& now = channels_[channel];
  if (now.active && now.check == self) schedule_check(channel, now.deadline);
}

}  // namespace aft::detect
