// AutonomicReplicationService — the Sect. 3.3 stack in process, as one facade:
//
//   RestoringOrgan (VotingFarm + ReflectiveSwitchboard + the per-unit
//     dissent judge; see organ.hpp)
//     + DisturbanceEstimator (smoothed environment deduction, published
//       into a Context for other subsystems / gestalt agents)
//     + the dimensioning assumption as a first-class Assumption variable
//       that is *rebound* on every resize — "context-aware, autonomically
//       changing Horning Assumptions".
//
// A caller supplies the replicated task and invokes call(); everything else
// is autonomic.  This is the API a downstream user of the library would
// actually program against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "autonomic/estimator.hpp"
#include "autonomic/organ.hpp"
#include "autonomic/switchboard.hpp"
#include "core/assumption.hpp"
#include "core/context.hpp"
#include "vote/voting_farm.hpp"

namespace aft::autonomic {

class AutonomicReplicationService {
 public:
  struct Options {
    std::size_t initial_replicas = 3;
    ReflectiveSwitchboard::Policy policy{};
    DisturbanceEstimator::Params estimator{};
    std::uint64_t shared_key = 0xA47;  ///< switchboard<->farm channel key
    std::string assumption_id = "dim.redundancy";
    /// When true, a unit the organ judges permanently/intermittently
    /// faulty is REPLACED (the next spare unit id is mapped in) — Sect.
    /// 3.2's "replace on failure" decision, taken inside the Sect. 3.3
    /// organ only once the fault is discriminated as non-transient.
    bool retire_faulty_units = false;
  };

  /// The replicated method.  The second argument is a *unit id*: the
  /// identity of the physical/logical unit executing this replica slot.
  /// Without retirement it equals the slot index; with retirement, a slot
  /// whose unit was judged faulty gets a fresh unit id (modelling the
  /// engagement of a spare).
  using Task = std::function<vote::Ballot(vote::Ballot input, std::size_t unit)>;

  /// `context` may be nullptr; when given, the disturbance level and the
  /// current redundancy degree are published into it.
  AutonomicReplicationService(Task task, Options options,
                              core::Context* context = nullptr);

  /// One replicated invocation: replicate, vote, observe, maybe resize.
  /// Returns the voted value, or nullopt when no majority existed (an
  /// assumption failure the caller must handle — it is also counted).
  std::optional<vote::Ballot> call(vote::Ballot input);

  [[nodiscard]] std::size_t replicas() const noexcept { return farm().replicas(); }
  [[nodiscard]] double disturbance_level() const noexcept {
    return estimator_.level();
  }
  [[nodiscard]] std::uint64_t calls() const noexcept { return farm().rounds(); }
  [[nodiscard]] std::uint64_t failures() const noexcept { return farm().failures(); }
  [[nodiscard]] const ReflectiveSwitchboard& switchboard() const noexcept {
    return organ_.board();
  }
  [[nodiscard]] const RestoringOrgan& organ() const noexcept { return organ_; }
  /// The live dimensioning assumption a(r): "Degree of employed redundancy
  /// is r" (the Fig. 7 caption's assumption variable).
  [[nodiscard]] const core::Assumption<std::int64_t>& dimensioning_assumption()
      const noexcept {
    return assumption_;
  }
  [[nodiscard]] const vote::RoundReport& last_report() const noexcept {
    return last_report_;
  }

  /// Faulty units replaced so far (0 unless retire_faulty_units).
  [[nodiscard]] std::uint64_t units_replaced() const noexcept {
    return units_replaced_;
  }
  /// Unit currently serving a replica slot.
  [[nodiscard]] std::size_t unit_of_slot(std::size_t slot) const {
    return unit_of_slot_.at(slot);
  }

 private:
  [[nodiscard]] const vote::VotingFarm& farm() const noexcept { return organ_.farm(); }
  void ensure_slot_units(std::size_t n);

  core::Context* context_;
  Options options_;
  Task task_;
  std::vector<std::size_t> unit_of_slot_;
  std::size_t next_unit_ = 0;
  std::uint64_t units_replaced_ = 0;
  RestoringOrgan organ_;
  DisturbanceEstimator estimator_;
  core::Assumption<std::int64_t> assumption_;
  vote::RoundReport last_report_{};
  std::string replicas_key_;
};

}  // namespace aft::autonomic
