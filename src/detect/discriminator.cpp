#include "detect/discriminator.hpp"

#include "obs/obs.hpp"

namespace aft::detect {

FaultDiscriminator::FaultDiscriminator(AlphaCount::Params params)
    : params_(params) {}

ChannelId FaultDiscriminator::add(std::string name) {
  channels_.emplace_back(params_).count.set_label(std::move(name));
  return channels_.size() - 1;
}

void FaultDiscriminator::publish_verdict(ChannelId channel, FaultJudgment verdict,
                                         [[maybe_unused]] double score) {
  AFT_METRIC_ADD("detect.discriminator.verdict_changes", 1);
  AFT_TRACE("detect.discriminator", "verdict",
            {{"channel", name(channel)},
             {"judgment", to_string(verdict)},
             {"score", score}});
  // Index loop, not range-for: a handler may call on_verdict_change()
  // re-entrantly (e.g. a switchboard arming a follow-up observer), and the
  // push_back would invalidate a range-for's iterators on reallocation.
  // Handlers appended mid-notification are not invoked for this change.
  const std::size_t n = handlers_.size();
  for (std::size_t i = 0; i < n; ++i) handlers_[i](channel, verdict);
}

bool FaultDiscriminator::record(ChannelId channel, bool error) {
  Channel& c = channels_.at(channel);
  c.recorded = true;
  c.count.record(error);
  const FaultJudgment now = c.count.judgment();
  if (now == c.last) return false;
  c.last = now;
  publish_verdict(channel, now, c.count.score());
  return true;
}

bool FaultDiscriminator::reset(ChannelId channel) {
  Channel& c = channels_.at(channel);
  if (!c.recorded) return false;
  c.count.reset();
  // A reset is a unit replacement: if it moves the verdict (typically
  // kPermanentOrIntermittent -> kNoEvidence), subscribers must hear about
  // it exactly like any record()-driven transition — a switchboard that
  // suspended the channel has to re-arm.  Silently updating the last
  // verdict here made replacements invisible to every subscriber.
  const FaultJudgment now = c.count.judgment();
  if (now == c.last) return false;
  c.last = now;
  publish_verdict(channel, now, c.count.score());
  return true;
}

void FaultDiscriminator::on_verdict_change(VerdictHandler handler) {
  handlers_.push_back(std::move(handler));
}

}  // namespace aft::detect
