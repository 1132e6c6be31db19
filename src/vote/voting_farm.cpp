#include "vote/voting_farm.hpp"

#include "obs/obs.hpp"

namespace aft::vote {
namespace {

std::size_t round_up_to_odd(std::size_t n) noexcept {
  if (n == 0) return 1;
  return n % 2 == 0 ? n + 1 : n;
}

}  // namespace

VotingFarm::VotingFarm(std::size_t replicas)
    : replicas_(round_up_to_odd(replicas)) {}

VotingFarm::VotingFarm(std::size_t replicas, Task task)
    : replicas_(round_up_to_odd(replicas)), task_(std::move(task)) {
  if (!task_) throw std::invalid_argument("VotingFarm: null task");
}

inline RoundReport VotingFarm::close_round() {
  ++rounds_;
  if (obs::MetricsRegistry* reg = obs::metrics(); reg != nullptr) {
    const std::uint64_t t = obs::obs_time();
    if (round_t_valid_ && t >= last_round_t_) {
      AFT_METRIC_OBSERVE("vote.farm.round_gap",
                         static_cast<double>(t - last_round_t_));
    }
    last_round_t_ = t;
    round_t_valid_ = true;
  }
  const VoteOutcome outcome = majority_vote(ballots_, scratch_);
  RoundReport report;
  report.n = replicas_;
  report.dissent = outcome.dissent;
  report.success = outcome.has_majority;
  report.value = outcome.winner;
  report.distance = dtof_of_outcome(outcome);
  if (!report.success) ++failures_;
  return report;
}

RoundReport VotingFarm::invoke(Ballot input) {
  // Hot path of the Fig. 6/7 experiment loops: ballots_ is assigned in
  // place (resize reuses capacity across rounds and resizes) and voted
  // where it lies; the scratch is only sized alongside it.
  ballots_.resize(replicas_);
  scratch_.resize(replicas_);
  for (std::size_t r = 0; r < replicas_; ++r) {
    ballots_[r] = task_(input, r);
    ++replica_invocations_;
  }
  return close_round();
}

RoundReport VotingFarm::tally(std::span<const Ballot> collected) {
  ballots_.resize(replicas_);
  scratch_.resize(replicas_);
  for (std::size_t r = 0; r < replicas_; ++r) {
    ballots_[r] = r < collected.size() ? collected[r] : no_reply(r);
  }
  replica_invocations_ += replicas_;
  return close_round();
}

void VotingFarm::resize(std::size_t replicas) {
  const std::size_t target = round_up_to_odd(replicas);
  if (target == replicas_) return;
  replicas_ = target;
  ++resizes_;
}

}  // namespace aft::vote
