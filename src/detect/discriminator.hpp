// Per-channel fault discrimination built on AlphaCount: maintains one score
// per monitored component and raises a callback on every verdict
// transition.  This is the "Alpha-count oracle" whose assessment drives the
// Sect. 3.2 pattern switch (D1 vs D2 injection).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "detect/alpha_count.hpp"

namespace aft::detect {

class FaultDiscriminator {
 public:
  using VerdictHandler =
      std::function<void(const std::string& channel, FaultJudgment verdict)>;

  explicit FaultDiscriminator(AlphaCount::Params params = AlphaCount::Params{});

  /// Feeds one judgment round for `channel` (creating it on first use).
  /// Fires the handler when the channel's judgment changed, and returns
  /// whether it did.
  bool record(const std::string& channel, bool error);

  /// Replaces the faulty unit: resets the channel's score and verdict.
  /// A verdict moved by the reset fires the handlers exactly like a
  /// record()-driven transition (subscribers must see the re-arm), and is
  /// returned the same way.
  bool reset_channel(const std::string& channel);

  [[nodiscard]] FaultJudgment judgment(const std::string& channel) const;
  [[nodiscard]] double score(const std::string& channel) const;
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }

  void on_verdict_change(VerdictHandler handler);

 private:
  /// Metric + trace + handler fan-out for one judgment transition.
  void publish_verdict(const std::string& channel, FaultJudgment verdict,
                       double score);

  /// One monitored channel: its score and the verdict last published.
  struct Channel {
    explicit Channel(AlphaCount::Params params) : count(params) {}
    AlphaCount count;
    FaultJudgment last = FaultJudgment::kNoEvidence;
  };

  AlphaCount::Params params_;
  std::map<std::string, Channel> channels_;
  std::vector<VerdictHandler> handlers_;
};

}  // namespace aft::detect
