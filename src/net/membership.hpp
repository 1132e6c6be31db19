// Heartbeat-based membership over lossy links: the Sect. 4 vision of
// "communities of services" needs each node to know which peers are alive,
// and over a dropping/partitioning wire a missed beat is ambiguous — a
// transient loss or a dead peer.  Membership therefore feeds heartbeat
// windows (detect::HeartbeatMonitor) into a per-peer alpha-count oracle
// (detect::FaultDiscriminator), and only a *judgment* transition — not a
// single miss — flips a member between up and down.  A moderately lossy
// link produces isolated misses whose evidence decays (member stays up); a
// partition produces consecutive misses that cross the threshold (member
// goes down); healing lets the evidence decay away again.
//
// reinstate() models the Sect. 3.2 unit-replacement treatment: the failed
// peer was repaired/replaced, so its evidence is cleared via
// FaultDiscriminator::reset — whose verdict-change notification is exactly
// what brings the member back up.
//
// A member is its id, minted once by track() (the id of its heartbeat
// channel and alpha-count judge) and used by every call and hook after
// that: the code that wires a member's endpoint holds the id, so no beat,
// window or verdict looks a name up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "detect/alpha_count.hpp"
#include "detect/discriminator.hpp"
#include "detect/heartbeat.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace aft::net {

class Membership {
 public:
  struct Params {
    /// Heartbeat window per member: one beat expected every `deadline`.
    sim::SimTime deadline = 10;
    /// Evidence filter deciding up/down from the miss pattern.
    detect::AlphaCount::Params alpha{};
  };

  /// A tracked member, minted by track().
  using MemberId = detect::ChannelId;

  /// `on_change(member, up)` fires on every up/down transition.
  using ChangeHandler = std::function<void(MemberId, bool)>;

  /// `on_miss(member, consecutive)` fires on every missed heartbeat window
  /// — raw monitor evidence, below the judgment layer.  Down-member
  /// bookkeeping (e.g. the cluster's reinstatement beat count, which a
  /// flapping member must restart) hangs off this; membership decisions
  /// themselves still only follow judgment transitions.
  using MissHandler = detect::HeartbeatMonitor::MissHandler;

  /// Post-mortem evidence join for the trace plane: asked for the trace id
  /// of the physical evidence behind a member going down (typically
  /// Link::last_drop_event(kHeartbeat) on the member's return wire).
  /// Return obs::kNoEvent to keep the detector-side ancestry.  Purely
  /// observational — never consulted for the membership decision itself.
  using EvidenceProvider = std::function<obs::EventId(MemberId)>;

  Membership(sim::Simulator& sim, Params params);

  /// Registers a member named `name` (initially up), starts its heartbeat
  /// windows and returns its id.
  MemberId track(std::string name);

  /// Feeds one received beat (wire Endpoint::on_heartbeat here).
  void beat(MemberId member) { monitor_.beat(member); }

  /// Administrative replacement of a failed member: clears its evidence
  /// and verdict; the resulting verdict change marks it up again.
  void reinstate(MemberId member);

  void on_change(ChangeHandler handler);

  /// Installs the missed-window observer (replaces any prior).
  void on_miss(MissHandler handler) {
    monitor_.set_miss_handler(std::move(handler));
  }

  /// Installs the down-evidence hook (see EvidenceProvider).  The
  /// member-down trace record's cause is taken from it, and the record is
  /// installed as the current cause while change handlers run — so a
  /// handler's reaction (evict, switchboard raise) chains back through the
  /// verdict to the dropped frame.
  void set_down_evidence(EvidenceProvider provider);

  /// Whether `member` is tracked and up.
  [[nodiscard]] bool up(MemberId member) const {
    return member < up_.size() && up_[member];
  }
  [[nodiscard]] std::size_t up_count() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return up_.size(); }
  [[nodiscard]] std::uint64_t downs() const noexcept { return downs_; }
  [[nodiscard]] std::uint64_t ups() const noexcept { return ups_; }
  [[nodiscard]] const detect::FaultDiscriminator& discriminator()
      const noexcept {
    return discriminator_;
  }

 private:
  void verdict_changed(MemberId member, detect::FaultJudgment verdict);

  sim::Simulator& sim_;
  Params params_;
  detect::FaultDiscriminator discriminator_;
  detect::HeartbeatMonitor monitor_;
  std::vector<bool> up_;  ///< indexed by member id
  std::vector<ChangeHandler> handlers_;
  EvidenceProvider down_evidence_;
  std::uint64_t downs_ = 0;
  std::uint64_t ups_ = 0;
};

}  // namespace aft::net
