// The Sect. 3.3 restoring organ, one core for both front-ends: the Voting
// Farm, the Reflective Switchboard that revises its arity, and the Sect. 3.2
// alpha-count judging which unit is broken.  A round is voted (in process
// through the farm's Task, or over ballots a networked front-end collected)
// and then settled: when a majority exists, each unit that held a slot is
// scored as dissenting iff its ballot differs from the voted value, and the
// switchboard observes the round.  Front-ends keep only their treatment of
// a verdict (AutonomicReplicationService maps in a spare unit,
// cluster::ReplicatedService suspects the node until repair()).
//
// Judge channels are keyed by unit: unit u is the judge's channel u, named
// "replica-<u>" when the organ first sees it.  A replaced unit starts with
// a clean history, and a unit keeps its history across a shrink and regrow
// of the farm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "autonomic/switchboard.hpp"
#include "detect/discriminator.hpp"
#include "vote/voting_farm.hpp"

namespace aft::autonomic {

class RestoringOrgan {
 public:
  /// A unit's judgment moved: (unit, new judgment).
  using VerdictHook = std::function<void(std::size_t, detect::FaultJudgment)>;

  /// A null `task` makes a networked organ, which only tallies ballots.
  RestoringOrgan(std::size_t replicas, vote::VotingFarm::Task task,
                 ReflectiveSwitchboard::Policy policy, std::uint64_t shared_key);
  RestoringOrgan(const RestoringOrgan&) = delete;
  RestoringOrgan& operator=(const RestoringOrgan&) = delete;

  vote::RoundReport vote(vote::Ballot input) { return farm_.invoke(input); }
  vote::RoundReport vote(std::span<const vote::Ballot> collected) {
    return farm_.tally(collected);
  }

  /// Slot s was held by `units[s]` and cast `ballots[s]`.  The hook fires
  /// inside the scoring loop and may remap units.
  void settle(const vote::RoundReport& report, std::span<const vote::Ballot> ballots,
              std::span<const std::size_t> units);
  /// A repaired unit: its history restarts (the hook hears the re-arm).
  void reset(std::size_t unit);
  [[nodiscard]] detect::FaultJudgment judgment(std::size_t unit) const;
  void on_verdict(VerdictHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] vote::VotingFarm& farm() noexcept { return farm_; }
  [[nodiscard]] const vote::VotingFarm& farm() const noexcept { return farm_; }
  [[nodiscard]] ReflectiveSwitchboard& board() noexcept { return board_; }
  [[nodiscard]] const ReflectiveSwitchboard& board() const noexcept { return board_; }

 private:
  void notify(std::size_t unit, bool moved);  ///< hook, if the verdict moved
  detect::ChannelId channel(std::size_t unit);  ///< registers units up to `unit`

  vote::VotingFarm farm_;
  ReflectiveSwitchboard board_;
  detect::FaultDiscriminator judge_;
  VerdictHook hook_;
};

}  // namespace aft::autonomic
