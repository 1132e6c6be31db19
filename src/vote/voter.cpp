#include "vote/voter.hpp"

#include <algorithm>
#include <charconv>
#include <string>

namespace aft::vote {

std::optional<Ballot> parse_ballot(const std::string& text) {
  // strtoll's accept set, without its locale and errno traffic: the text
  // ends at its first NUL, C-locale white space may lead, then an optional
  // sign and base-10 digits up to the end.
  const char* p = text.c_str();
  const char* const end = p + std::char_traits<char>::length(p);
  while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
  // from_chars takes '-' but not '+', and must not see a sign after '+'.
  if (p != end && *p == '+' && ++p != end && *p == '-') return std::nullopt;
  Ballot value = 0;
  const auto [last, ec] = std::from_chars(p, end, value);
  if (ec != std::errc{} || last != end) return std::nullopt;
  return value;
}
namespace {

/// Longest run in a sorted range: returns {value, count, runner_up_count}.
struct Mode {
  Ballot value = 0;
  std::size_t count = 0;
  std::size_t runner_up = 0;
};

Mode mode_of_sorted(std::span<const Ballot> sorted) {
  Mode best;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const std::size_t run = j - i;
    if (run > best.count) {
      best.runner_up = best.count;
      best.count = run;
      best.value = sorted[i];
    } else if (run > best.runner_up) {
      best.runner_up = run;
    }
    i = j;
  }
  return best;
}

VoteOutcome outcome_from_mode(const Mode& mode, std::size_t n) {
  VoteOutcome out;
  out.n = n;
  if (n == 0) return out;
  out.winner = mode.value;
  out.agreeing = mode.count;
  out.dissent = n - mode.count;
  out.has_majority = mode.count * 2 > n;
  return out;
}

/// Decides a round some value wins by strict majority, by counting
/// agreement instead of sorting: fills `out` and returns true, or returns
/// false for a split round.  A strict majority is the sorted path's unique
/// longest run, so every field equals what outcome_from_mode() reports.
/// An out-parameter, not a returned std::optional: copying the optional out
/// stalled on store forwarding, at a cost comparable to the vote itself.
bool decide_by_agreement(std::span<const Ballot> ballots, VoteOutcome& out) {
  const std::size_t n = ballots.size();
  out = VoteOutcome{};
  out.n = n;
  if (n == 0) return true;
  // Unanimity first: the common round never leaves the leading run.
  Ballot candidate = ballots[0];
  std::size_t i = 1;
  while (i < n && ballots[i] == candidate) ++i;
  std::size_t agreeing = n;
  if (i < n) {
    // Boyer-Moore, carrying on from the leading run: the only value that
    // can hold a strict majority is the final candidate.  Count it.
    std::size_t lead = i;
    for (; i < n; ++i) {
      if (lead == 0) {
        candidate = ballots[i];
        lead = 1;
      } else if (ballots[i] == candidate) {
        ++lead;
      } else {
        --lead;
      }
    }
    agreeing = static_cast<std::size_t>(
        std::count(ballots.begin(), ballots.end(), candidate));
    if (agreeing * 2 <= n) return false;
  }
  out.has_majority = true;
  out.winner = candidate;
  out.agreeing = agreeing;
  out.dissent = n - agreeing;
  return true;
}

/// The split-round path: sorts `ballots` and takes the longest run (the
/// smallest value among equally long ones).
VoteOutcome sorted_vote(std::vector<Ballot>& ballots) {
  std::sort(ballots.begin(), ballots.end());
  return outcome_from_mode(mode_of_sorted(ballots), ballots.size());
}

}  // namespace

VoteOutcome majority_vote(std::span<const Ballot> ballots,
                          std::vector<Ballot>& scratch) {
  VoteOutcome out;
  if (!decide_by_agreement(ballots, out)) {
    scratch.assign(ballots.begin(), ballots.end());
    out = sorted_vote(scratch);
  }
  return out;
}

VoteOutcome majority_vote(std::span<const Ballot> ballots) {
  std::vector<Ballot> scratch;  // allocates only if the round is split
  return majority_vote(ballots, scratch);
}

VoteOutcome plurality_vote(std::span<const Ballot> ballots) {
  std::vector<Ballot> sorted(ballots.begin(), ballots.end());
  std::sort(sorted.begin(), sorted.end());
  const Mode mode = mode_of_sorted(sorted);
  VoteOutcome out = outcome_from_mode(mode, sorted.size());
  // Plurality accepts a unique mode even without strict majority.  The mode
  // helper tracks the runner-up run length; a tie means no unique winner.
  // Ties resolve toward the smaller value only when counts differ; equal
  // counts yield failure.
  if (!out.has_majority && !sorted.empty()) {
    out.has_majority = mode.count > mode.runner_up;
  }
  return out;
}

std::optional<Ballot> median_vote(std::span<const Ballot> ballots) {
  if (ballots.empty()) return std::nullopt;
  std::vector<Ballot> sorted(ballots.begin(), ballots.end());
  const std::size_t mid = (sorted.size() - 1) / 2;  // lower median
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(mid),
                   sorted.end());
  return sorted[mid];
}

}  // namespace aft::vote
