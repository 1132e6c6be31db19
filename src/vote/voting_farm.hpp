// The Voting Farm — the replication-and-voting service of Sect. 3.3:
//
// "the replication-and-voting service is available through an interface
//  similar to the one of the Voting Farm [25].  Such service sets up a
//  so-called 'restoring organ' [26] after the user supplied the number of
//  replicas and the method to replicate."
//
// The number of replicas "is not the result of a fixed assumption but
// rather an initial value possibly subjected to revisions" — resize() is
// the control knob the Reflective Switchboard actuates (via authenticated
// messages; see autonomic/secure_message.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "vote/dtof.hpp"
#include "vote/voter.hpp"

namespace aft::vote {

/// One completed round, as reported to observers (e.g. the switchboard).
struct RoundReport {
  bool success = false;     ///< a majority existed
  Ballot value = 0;         ///< the voted output (meaningful when success)
  std::size_t n = 0;        ///< replicas used this round
  std::size_t dissent = 0;  ///< m
  std::int64_t distance = 0;///< dtof(n, m), 0 on failure
};

/// The ballot slot `slot` casts when its replica never answered.  Distinct
/// per slot, so missing replicas can never agree into a majority.
[[nodiscard]] constexpr Ballot no_reply(std::size_t slot) noexcept {
  return std::numeric_limits<Ballot>::min() + static_cast<Ballot>(slot);
}

class VotingFarm {
 public:
  /// The replicated method: computes the result for `replica` (0..n-1).
  /// A correct, undisturbed replica must return the same value for every
  /// index; disturbances injected by the experiment make replicas diverge.
  using Task = std::function<Ballot(Ballot input, std::size_t replica)>;

  VotingFarm(std::size_t replicas, Task task);
  /// A farm of replicas that run elsewhere: it only tally()s collected
  /// ballots, and invoke() on it throws std::bad_function_call.
  explicit VotingFarm(std::size_t replicas);

  /// Runs one replicate-and-vote round.
  RoundReport invoke(Ballot input);

  /// Votes collected ballots at the farm's arity *now*: slots beyond
  /// `collected` (raised while collecting) vote their no_reply() sentinel.
  RoundReport tally(std::span<const Ballot> collected);

  /// Per-replica ballots of the most recent round, indexed by replica id —
  /// the input the restoring organ's judge scores dissent from.
  [[nodiscard]] const std::vector<Ballot>& last_ballots() const noexcept {
    return ballots_;
  }

  /// Revises the degree of redundancy.  Enforces odd arity >= 1 (an even
  /// farm can deadlock in a tie, so the farm rounds up to the next odd).
  void resize(std::size_t replicas);

  [[nodiscard]] std::size_t replicas() const noexcept { return replicas_; }

  // --- Accounting ---------------------------------------------------------
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }
  [[nodiscard]] std::uint64_t replica_invocations() const noexcept {
    return replica_invocations_;
  }
  [[nodiscard]] std::uint64_t resizes() const noexcept { return resizes_; }

 private:
  /// The tail shared by invoke() and tally(): counts, times, votes ballots_.
  RoundReport close_round();

  std::size_t replicas_;
  Task task_;
  std::uint64_t rounds_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t replica_invocations_ = 0;
  std::uint64_t resizes_ = 0;
  std::vector<Ballot> ballots_;  ///< last round, replica order
  /// Sort workspace of a split round, the only round that copies ballots_
  /// (an agreeing round is decided in place).  It is resized alongside
  /// ballots_ every round, so a first split round allocates nothing.
  std::vector<Ballot> scratch_;
  // Round cadence on the obs logical clock ("vote.farm.round_gap"): invoke()
  // itself is synchronous, so the latency signal of the voting plane is the
  // spacing between consecutive rounds.
  std::uint64_t last_round_t_ = 0;
  bool round_t_valid_ = false;
};

}  // namespace aft::vote
