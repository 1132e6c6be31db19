// Voters over replica outputs — the decision element of the "restoring
// organ" (Johnson [26]) behind the Voting Farm [25] of Sect. 3.3.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace aft::vote {

using Ballot = std::int64_t;

/// Ballots travel the RPC plane as decimal strings (std::to_string).  The
/// whole text must be one in-range base-10 integer; anything else (empty,
/// trailing characters, overflow) is no ballot.
[[nodiscard]] std::optional<Ballot> parse_ballot(const std::string& text);

/// Outcome of one voting round over n ballots.
struct VoteOutcome {
  bool has_majority = false;     ///< strict majority (> n/2) agreed
  Ballot winner = 0;             ///< meaningful when has_majority (or plurality)
  std::size_t agreeing = 0;      ///< ballots equal to the winner
  std::size_t dissent = 0;       ///< m: ballots differing from the majority
  std::size_t n = 0;
};

/// Exact-agreement majority voter: the winner must hold a strict majority.
/// A round is decided by counting agreement (unanimity, then a Boyer-Moore
/// candidate); only a split round, where no value holds a strict majority,
/// is sorted, and its outcome reports the longest run (the smallest value
/// among equally long ones) as winner and agreeing.  Both overloads return
/// the same outcome for the same ballots.
[[nodiscard]] VoteOutcome majority_vote(std::span<const Ballot> ballots);

/// As above, but a split round copies `ballots` into `scratch` and sorts
/// there, reusing its capacity; allocation-free once that covers the round.
[[nodiscard]] VoteOutcome majority_vote(std::span<const Ballot> ballots,
                                        std::vector<Ballot>& scratch);

/// Plurality voter: the most frequent value wins even without a strict
/// majority (ties broken toward the smallest value, deterministically).
[[nodiscard]] VoteOutcome plurality_vote(std::span<const Ballot> ballots);

/// Median voter for numeric ballots (inexact agreement): robust to up to
/// floor(n/2) arbitrarily wrong values.  Even-sized inputs take the lower
/// median to stay within the ballot set.
[[nodiscard]] std::optional<Ballot> median_vote(std::span<const Ballot> ballots);

}  // namespace aft::vote
