#include "net/membership.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace aft::net {

Membership::Membership(sim::Simulator& sim, Params params)
    : sim_(sim),
      params_(params),
      discriminator_(params.alpha),
      monitor_(sim, discriminator_) {
  discriminator_.on_verdict_change(
      [this](MemberId member, detect::FaultJudgment verdict) {
        verdict_changed(member, verdict);
      });
}

Membership::MemberId Membership::track(std::string name) {
  const MemberId member = monitor_.watch(std::move(name), params_.deadline);
  up_.push_back(true);
  AFT_TRACE("net.membership", "track",
            {{"member", discriminator_.name(member)}});
  return member;
}

void Membership::reinstate(MemberId member) {
  AFT_TRACE("net.membership", "reinstate",
            {{"member", discriminator_.name(member)}});
  // The reset's verdict change (kPermanentOrIntermittent -> kNoEvidence)
  // flows back through verdict_changed and marks the member up.
  discriminator_.reset(member);
}

void Membership::on_change(ChangeHandler handler) {
  handlers_.push_back(std::move(handler));
}

void Membership::set_down_evidence(EvidenceProvider provider) {
  down_evidence_ = std::move(provider);
}

std::size_t Membership::up_count() const noexcept {
  std::size_t n = 0;
  for (const bool is_up : up_) n += is_up ? 1u : 0u;
  return n;
}

void Membership::verdict_changed(MemberId member, detect::FaultJudgment verdict) {
  const bool now_up = verdict != detect::FaultJudgment::kPermanentOrIntermittent;
  if (up_[member] == now_up) return;
  up_[member] = now_up;
  if (now_up) {
    ++ups_;
    AFT_METRIC_ADD("net.membership.ups", 1);
  } else {
    ++downs_;
    AFT_METRIC_ADD("net.membership.downs", 1);
  }
  // Manual emit rather than AFT_TRACE, for the causality plane: a
  // member-down record's cause is joined to the physical evidence (the
  // heartbeat frame the wire last ate, via the down_evidence_ hook), and
  // the record itself becomes the current cause while change handlers run —
  // so an evict/raise reaction walks back through the verdict to the drop.
  const obs::CauseScope cause(
      "net.membership",
      now_up ? obs::Name("member-up") : obs::Name("member-down"),
      {{"member", discriminator_.name(member)}},
      !now_up && down_evidence_ ? down_evidence_(member) : obs::kNoEvent);
  // Index loop: a change handler may subscribe further handlers
  // re-entrantly (same hazard the discriminator fix covers).
  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    handlers_[i](member, now_up);
  }
}

}  // namespace aft::net
