#include "vote/voter.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace aft::vote {

std::optional<Ballot> parse_ballot(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno != 0) return std::nullopt;
  return static_cast<Ballot>(value);
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

}  // namespace

VoteOutcome majority_vote_inplace(std::vector<Ballot>& ballots) {
  std::sort(ballots.begin(), ballots.end());
  return outcome_from_mode(mode_of_sorted(ballots), ballots.size());
}

VoteOutcome majority_vote(std::span<const Ballot> ballots) {
  std::vector<Ballot> sorted(ballots.begin(), ballots.end());
  return majority_vote_inplace(sorted);
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
