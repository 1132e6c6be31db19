// Per-channel fault discrimination built on AlphaCount: maintains one score
// per monitored component and raises a callback on every verdict
// transition.  This is the "Alpha-count oracle" whose assessment drives the
// Sect. 3.2 pattern switch (D1 vs D2 injection).
//
// A channel is registered once by name and known by its dense id after that;
// the name is kept only as its AlphaCount label, for the trace records.  A
// channel stays invisible until its first round: reset() on it is silent.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "detect/alpha_count.hpp"

namespace aft::detect {

/// Dense channel id, minted by FaultDiscriminator::add() in call order.
using ChannelId = std::size_t;

class FaultDiscriminator {
 public:
  using VerdictHandler = std::function<void(ChannelId, FaultJudgment verdict)>;

  explicit FaultDiscriminator(AlphaCount::Params params = AlphaCount::Params{});

  /// Registers a channel and returns its id (0, 1, 2, ... in call order).
  ChannelId add(std::string name);

  /// Feeds one judgment round for `channel`.  Fires the handler when the
  /// channel's judgment changed, and returns whether it did.
  bool record(ChannelId channel, bool error);

  /// Replaces the faulty unit: resets the channel's score and verdict.
  /// A verdict moved by the reset fires the handlers exactly like a
  /// record()-driven transition (subscribers must see the re-arm), and is
  /// returned the same way.
  bool reset(ChannelId channel);

  [[nodiscard]] FaultJudgment judgment(ChannelId channel) const {
    return channels_.at(channel).count.judgment();
  }
  [[nodiscard]] double score(ChannelId channel) const {
    return channels_.at(channel).count.score();
  }
  [[nodiscard]] std::string_view name(ChannelId channel) const {
    return channels_.at(channel).count.label();
  }
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }

  void on_verdict_change(VerdictHandler handler);

 private:
  /// Metric + trace + handler fan-out for one judgment transition.
  void publish_verdict(ChannelId channel, FaultJudgment verdict, double score);

  /// One monitored channel: its score and the verdict last published.
  struct Channel {
    explicit Channel(AlphaCount::Params params) : count(params) {}
    AlphaCount count;
    FaultJudgment last = FaultJudgment::kNoEvidence;
    bool recorded = false;  ///< a judgment round has run: reset() is visible
  };

  AlphaCount::Params params_;
  std::vector<Channel> channels_;
  std::vector<VerdictHandler> handlers_;
};

}  // namespace aft::detect
