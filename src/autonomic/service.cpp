#include "autonomic/service.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace aft::autonomic {

AutonomicReplicationService::AutonomicReplicationService(Task task,
                                                         Options options,
                                                         core::Context* context)
    : context_(context),
      options_(options),
      task_(std::move(task)),
      organ_(options.initial_replicas,
             [this](vote::Ballot input, std::size_t slot) {
               return task_(input, unit_of_slot_[slot]);
             },
             options.policy, options.shared_key),
      estimator_(options.estimator, context),
      assumption_(
          options.assumption_id, "Degree of employed redundancy is r",
          core::Subject::kExecutionEnvironment,
          core::Provenance{.origin = "AutonomicReplicationService",
                           .rationale =
                               "initial dimensioning; autonomically revised "
                               "on every switchboard resize",
                           .stated_at = core::BindingTime::kRun},
          static_cast<std::int64_t>(farm().replicas()),
          options.assumption_id + ".observed"),
      replicas_key_(options.assumption_id + ".observed") {
  if (!task_) throw std::invalid_argument("AutonomicReplicationService: null task");
  ensure_slot_units(farm().replicas());

  // Every authenticated resize re-binds the dimensioning assumption: the
  // hypothesis is kept in lockstep with reality by construction.
  organ_.board().set_resize_hook([this](std::size_t replicas, bool) {
    ensure_slot_units(replicas);
    assumption_.rebind(static_cast<std::int64_t>(replicas));
    if (context_ != nullptr) {
      context_->set(replicas_key_, static_cast<std::int64_t>(replicas));
    }
  });
  if (context_ != nullptr) {
    context_->set(replicas_key_, static_cast<std::int64_t>(farm().replicas()));
  }
  // The organ judges every unit; under retire_faulty_units, a unit judged
  // permanently or intermittently faulty hands its slot to a spare, which
  // starts with a clean history of its own.
  organ_.on_verdict([this](std::size_t unit, detect::FaultJudgment verdict) {
    if (!options_.retire_faulty_units ||
        verdict != detect::FaultJudgment::kPermanentOrIntermittent) {
      return;
    }
    *std::ranges::find(unit_of_slot_, unit) = next_unit_++;  // judged: in a slot
    ++units_replaced_;
  });
}

void AutonomicReplicationService::ensure_slot_units(std::size_t n) {
  while (unit_of_slot_.size() < n) {
    unit_of_slot_.push_back(next_unit_++);
  }
}

std::optional<vote::Ballot> AutonomicReplicationService::call(vote::Ballot input) {
  last_report_ = organ_.vote(input);
  estimator_.observe(last_report_);
  organ_.settle(last_report_, farm().last_ballots(),
                std::span<const std::size_t>(unit_of_slot_).first(last_report_.n));
  if (!last_report_.success) return std::nullopt;
  return last_report_.value;
}

}  // namespace aft::autonomic
