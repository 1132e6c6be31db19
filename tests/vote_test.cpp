// Tests for voters, dtof (including the exact Fig. 5 table), and the
// Voting Farm restoring organ.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "vote/dtof.hpp"
#include "vote/voter.hpp"
#include "vote/voting_farm.hpp"

namespace {

using namespace aft::vote;

// --- Voters --------------------------------------------------------------------

TEST(MajorityVoteTest, EmptyAndSingleton) {
  EXPECT_FALSE(majority_vote({}).has_majority);
  const std::array<Ballot, 1> one{42};
  const auto o = majority_vote(one);
  EXPECT_TRUE(o.has_majority);
  EXPECT_EQ(o.winner, 42);
  EXPECT_EQ(o.dissent, 0u);
}

TEST(MajorityVoteTest, CleanConsensus) {
  const std::array<Ballot, 7> b{5, 5, 5, 5, 5, 5, 5};
  const auto o = majority_vote(b);
  EXPECT_TRUE(o.has_majority);
  EXPECT_EQ(o.agreeing, 7u);
  EXPECT_EQ(o.dissent, 0u);
}

TEST(MajorityVoteTest, MajorityWithDissent) {
  const std::array<Ballot, 7> b{5, 5, 9, 5, 8, 5, 7};
  const auto o = majority_vote(b);
  EXPECT_TRUE(o.has_majority);
  EXPECT_EQ(o.winner, 5);
  EXPECT_EQ(o.agreeing, 4u);
  EXPECT_EQ(o.dissent, 3u);
}

TEST(MajorityVoteTest, NoMajority) {
  const std::array<Ballot, 7> b{1, 1, 1, 2, 2, 3, 3};  // mode 3 of 7: not strict
  const auto o = majority_vote(b);
  EXPECT_FALSE(o.has_majority);
  EXPECT_EQ(o.agreeing, 3u);
}

TEST(MajorityVoteTest, ExactHalfIsNotMajority) {
  const std::array<Ballot, 4> b{1, 1, 2, 2};
  EXPECT_FALSE(majority_vote(b).has_majority);
}

TEST(PluralityVoteTest, UniqueModeWinsWithoutStrictMajority) {
  const std::array<Ballot, 7> b{1, 1, 1, 2, 2, 3, 4};
  const auto o = plurality_vote(b);
  EXPECT_TRUE(o.has_majority);
  EXPECT_EQ(o.winner, 1);
}

TEST(PluralityVoteTest, TiedModesFail) {
  const std::array<Ballot, 6> b{1, 1, 1, 2, 2, 2};
  EXPECT_FALSE(plurality_vote(b).has_majority);
}

TEST(MedianVoteTest, RobustToMinorityOutliers) {
  const std::array<Ballot, 5> b{100, 100, 100, 100000, -100000};
  EXPECT_EQ(median_vote(b), 100);
  EXPECT_FALSE(median_vote({}).has_value());
}

TEST(MedianVoteTest, EvenSizeTakesLowerMedian) {
  const std::array<Ballot, 4> b{1, 2, 3, 4};
  EXPECT_EQ(median_vote(b), 2);
}

// --- The agreement path against the sorted reference ---------------------------

/// The majority voter by its definition: sort, and report the longest run
/// (the smallest value among equally long ones) with its length.
VoteOutcome sorted_reference(std::vector<Ballot> ballots) {
  std::sort(ballots.begin(), ballots.end());
  VoteOutcome out;
  out.n = ballots.size();
  if (ballots.empty()) return out;
  std::size_t i = 0;
  while (i < ballots.size()) {
    std::size_t j = i;
    while (j < ballots.size() && ballots[j] == ballots[i]) ++j;
    if (j - i > out.agreeing) {
      out.agreeing = j - i;
      out.winner = ballots[i];
    }
    i = j;
  }
  out.dissent = out.n - out.agreeing;
  out.has_majority = out.agreeing * 2 > out.n;
  return out;
}

void expect_outcome(const VoteOutcome& got, const VoteOutcome& want,
                    const char* path, std::size_t trial) {
  EXPECT_EQ(got.has_majority, want.has_majority) << path << " trial " << trial;
  EXPECT_EQ(got.winner, want.winner) << path << " trial " << trial;
  EXPECT_EQ(got.agreeing, want.agreeing) << path << " trial " << trial;
  EXPECT_EQ(got.dissent, want.dissent) << path << " trial " << trial;
  EXPECT_EQ(got.n, want.n) << path << " trial " << trial;
}

void expect_report(const RoundReport& got, const VoteOutcome& want,
                   const char* path, std::size_t trial) {
  EXPECT_EQ(got.success, want.has_majority) << path << " trial " << trial;
  EXPECT_EQ(got.value, want.winner) << path << " trial " << trial;
  EXPECT_EQ(got.n, want.n) << path << " trial " << trial;
  EXPECT_EQ(got.dissent, want.dissent) << path << " trial " << trial;
  EXPECT_EQ(got.distance, dtof_of_outcome(want)) << path << " trial " << trial;
}

TEST(MajorityVoteTest, AgreementPathMatchesTheSortedReference) {
  // Thousands of seeded rounds of 0..15 ballots over alphabets of 1..4
  // symbols, so unanimous, majority, split and tied rounds all occur.  The
  // symbols include the extremes of Ballot (a no_reply() sentinel is near
  // the bottom), and their order varies, so a tie's smallest-value winner
  // is exercised in both directions.
  constexpr std::array<Ballot, 4> kSymbols{
      42, -7, std::numeric_limits<Ballot>::min(), std::numeric_limits<Ballot>::max()};
  aft::util::Xoshiro256 rng(26);
  std::vector<Ballot> current;
  VotingFarm invoked(1, [&current](Ballot, std::size_t replica) {
    return current[replica];
  });
  VotingFarm tallied(1);
  std::vector<Ballot> scratch;
  std::size_t unanimous = 0, majority = 0, split = 0, tied = 0;
  for (std::size_t trial = 0; trial < 6000; ++trial) {
    const std::size_t n = rng.uniform_int(0, 15);
    const std::size_t alphabet = rng.uniform_int(1, 4);
    const std::size_t offset = rng.uniform_int(0, 3);
    current.resize(n);
    for (Ballot& b : current) {
      b = kSymbols[(offset + rng.uniform_int(0, alphabet - 1)) % kSymbols.size()];
    }
    const VoteOutcome want = sorted_reference(current);
    if (n > 0 && want.agreeing == n) {
      ++unanimous;
    } else if (want.has_majority) {
      ++majority;
    } else if (n > 0 && std::count_if(kSymbols.begin(), kSymbols.end(), [&](Ballot v) {
                 return static_cast<std::size_t>(std::count(
                            current.begin(), current.end(), v)) == want.agreeing;
               }) > 1) {
      ++tied;  // two longest runs: the smaller value must win
    } else {
      ++split;
    }

    expect_outcome(majority_vote(current), want, "majority_vote", trial);
    expect_outcome(majority_vote(current, scratch), want, "majority_vote+scratch",
                   trial);

    // The farm votes at odd arity: an odd round goes through invoke(), and
    // through tally() both in full and with its tail left uncollected.
    if (n % 2 == 1) {
      invoked.resize(n);
      expect_report(invoked.invoke(0), want, "invoke", trial);
      EXPECT_EQ(invoked.last_ballots(), current) << "invoke, trial " << trial;

      tallied.resize(n);
      expect_report(tallied.tally(current), want, "tally", trial);
      EXPECT_EQ(tallied.last_ballots(), current) << "tally, trial " << trial;

      const std::size_t collected = rng.uniform_int(0, n);
      std::vector<Ballot> padded = current;
      for (std::size_t r = collected; r < n; ++r) padded[r] = no_reply(r);
      expect_report(tallied.tally(std::span<const Ballot>(current).first(collected)),
                    sorted_reference(padded), "tally of a prefix", trial);
      EXPECT_EQ(tallied.last_ballots(), padded) << "tally of a prefix, trial " << trial;
    }
  }
  EXPECT_GT(unanimous, 500u);
  EXPECT_GT(majority, 500u);
  EXPECT_GT(split, 500u);
  EXPECT_GT(tied, 200u);
}

/// parse_ballot's earlier strtoll body: the differential oracle.
std::optional<Ballot> strtoll_ballot(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno != 0) return std::nullopt;
  return static_cast<Ballot>(value);
}

TEST(ParseBallotTest, AcceptsExactlyOneInRangeDecimalInteger) {
  struct Case {
    const char* text;
    std::optional<Ballot> ballot;
  };
  const Case cases[] = {
      {"7", 7},
      {"-42", -42},
      {"0", 0},
      {"9223372036854775807", INT64_MAX},
      {"-9223372036854775808", INT64_MIN},
      {"", std::nullopt},
      {"7x", std::nullopt},
      {"x7", std::nullopt},
      {"-", std::nullopt},
      {"9223372036854775808", std::nullopt},    // ERANGE
      {"-9223372036854775809", std::nullopt},   // ERANGE
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse_ballot(c.text), c.ballot) << '"' << c.text << '"';
    EXPECT_EQ(strtoll_ballot(c.text), c.ballot) << '"' << c.text << '"';
  }
}

TEST(ParseBallotTest, MatchesTheStrtollParserOnSeededStrings) {
  // Strings glued from pieces that reach every corner of strtoll's accept
  // set: the six C-locale white-space characters and two that are not,
  // both signs, digit runs at and past the int64 limits, junk, and an
  // embedded NUL (the text ends there, for both parsers).
  using namespace std::string_literals;
  const std::array<std::string, 24> kPieces{
      " ", "\t", "\n", "\v", "\f", "\r", "\x1c", "\xa0",
      "+", "-", "0", "7", "42", "00",
      "9223372036854775807", "9223372036854775808", "922337203685477580",
      "99999999999999999999", "x", "0x1", "e3", ".", "\0"s, "7\0x"s};
  aft::util::Xoshiro256 rng(31);
  std::size_t accepted = 0;
  std::size_t overflowed = 0;
  std::string text;
  for (std::size_t trial = 0; trial < 120'000; ++trial) {
    text.clear();
    const std::size_t pieces = rng.uniform_int(0, 5);
    for (std::size_t k = 0; k < pieces; ++k) {
      if (rng.uniform_int(0, 3) == 0) {  // a random digit run, 1..21 long
        const std::size_t n = rng.uniform_int(1, 21);
        for (std::size_t d = 0; d < n; ++d) {
          text.push_back(static_cast<char>('0' + rng.uniform_int(0, 9)));
        }
      } else {
        text += kPieces[rng.uniform_int(0, kPieces.size() - 1)];
      }
    }
    const std::optional<Ballot> want = strtoll_ballot(text);
    ASSERT_EQ(parse_ballot(text), want) << "trial " << trial;
    if (want.has_value()) ++accepted;
    errno = 0;
    char* end = nullptr;
    static_cast<void>(std::strtoll(text.c_str(), &end, 10));
    if (errno == ERANGE) ++overflowed;
  }
  EXPECT_GT(accepted, 10'000u);
  EXPECT_GT(overflowed, 1'000u);
}

// --- dtof: the exact Fig. 5 table -------------------------------------------------

TEST(DtofTest, Fig5TableForSevenReplicas) {
  // Fig. 5: n = 7.  (a) consensus -> 4; (b) m=1 -> 3; (c) m=2 -> 2;
  // m=3 -> 1; (d) no majority -> 0.
  EXPECT_EQ(dtof(7, 0), 4);
  EXPECT_EQ(dtof(7, 1), 3);
  EXPECT_EQ(dtof(7, 2), 2);
  EXPECT_EQ(dtof(7, 3), 1);
  EXPECT_EQ(dtof_max(7), 4);
}

TEST(DtofTest, NoMajorityOutcomeIsZero) {
  const std::array<Ballot, 7> b{1, 1, 1, 2, 2, 3, 3};
  const auto o = majority_vote(b);
  ASSERT_FALSE(o.has_majority);
  EXPECT_EQ(dtof_of_outcome(o), 0);
}

TEST(DtofTest, OutcomeDistanceMatchesFormula) {
  const std::array<Ballot, 7> b{5, 5, 5, 5, 9, 8, 7};  // m = 3
  const auto o = majority_vote(b);
  ASSERT_TRUE(o.has_majority);
  EXPECT_EQ(dtof_of_outcome(o), 1);
}

/// Property over (n, m): dtof stays within [0, ceil(n/2)] — "dtof returns
/// an integer in [0, ceil(n/2)]".
class DtofRangeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DtofRangeTest, RangeInvariant) {
  const std::size_t n = GetParam();
  for (std::size_t m = 0; m <= n; ++m) {
    const auto d = dtof(n, m);
    EXPECT_GE(d, 0);
    EXPECT_LE(d, dtof_max(n));
  }
  EXPECT_EQ(dtof(n, 0), dtof_max(n));  // consensus is the farthest distance
}

INSTANTIATE_TEST_SUITE_P(OddArities, DtofRangeTest,
                         ::testing::Values(1u, 3u, 5u, 7u, 9u, 11u, 21u, 99u));

// --- VotingFarm --------------------------------------------------------------------

TEST(VotingFarmTest, NullTaskRejected) {
  EXPECT_THROW(VotingFarm(3, nullptr), std::invalid_argument);
}

TEST(VotingFarmTest, EvenAritiesRoundUpToOdd) {
  VotingFarm farm(4, [](Ballot in, std::size_t) { return in; });
  EXPECT_EQ(farm.replicas(), 5u);
  VotingFarm farm0(0, [](Ballot in, std::size_t) { return in; });
  EXPECT_EQ(farm0.replicas(), 1u);
}

TEST(VotingFarmTest, UndisturbedRoundReachesConsensus) {
  VotingFarm farm(7, [](Ballot in, std::size_t) { return in * 2; });
  const RoundReport r = farm.invoke(21);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.value, 42);
  EXPECT_EQ(r.n, 7u);
  EXPECT_EQ(r.dissent, 0u);
  EXPECT_EQ(r.distance, 4);  // Fig. 5 (a)
  EXPECT_EQ(farm.replica_invocations(), 7u);
}

TEST(VotingFarmTest, MinorityCorruptionMasked) {
  VotingFarm farm(7, [](Ballot in, std::size_t replica) {
    return replica < 3 ? in + 100 + static_cast<Ballot>(replica) : in;
  });
  const RoundReport r = farm.invoke(5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.value, 5);
  EXPECT_EQ(r.dissent, 3u);
  EXPECT_EQ(r.distance, 1);  // one more dissent would kill the majority
}

TEST(VotingFarmTest, MajorityCorruptionFails) {
  VotingFarm farm(7, [](Ballot in, std::size_t replica) {
    return replica < 4 ? in + 100 + static_cast<Ballot>(replica) : in;
  });
  const RoundReport r = farm.invoke(5);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.distance, 0);
  EXPECT_EQ(farm.failures(), 1u);
}

TEST(VotingFarmTest, ResizeTakesEffectNextRound) {
  VotingFarm farm(3, [](Ballot in, std::size_t) { return in; });
  farm.resize(7);
  EXPECT_EQ(farm.replicas(), 7u);
  EXPECT_EQ(farm.invoke(0).n, 7u);
  farm.resize(6);  // rounds up
  EXPECT_EQ(farm.replicas(), 7u);
  EXPECT_EQ(farm.resizes(), 1u);  // 6->7 was a no-op (already 7)
  farm.resize(3);
  EXPECT_EQ(farm.replicas(), 3u);
  EXPECT_EQ(farm.resizes(), 2u);
}

TEST(VotingFarmTest, RoundCountersAccumulate) {
  VotingFarm farm(3, [](Ballot in, std::size_t) { return in; });
  for (int i = 0; i < 10; ++i) farm.invoke(i);
  EXPECT_EQ(farm.rounds(), 10u);
  EXPECT_EQ(farm.replica_invocations(), 30u);
  EXPECT_EQ(farm.failures(), 0u);
}

TEST(VotingFarmTest, LastBallotsAreReplicaOrderedAndUnsorted) {
  // last_ballots() must expose the round's ballots in replica order even
  // when the round is split, the one kind the voter sorts — in the farm's
  // scratch, which must stay separate from the raw ballots.  A descending
  // ballot pattern with no majority makes any accidental aliasing with the
  // sorted scratch visible immediately.
  VotingFarm farm(5, [](Ballot in, std::size_t replica) {
    return replica == 1 ? in : in + 10 - static_cast<Ballot>(replica);
  });
  const RoundReport report = farm.invoke(100);
  const std::vector<Ballot>& ballots = farm.last_ballots();
  ASSERT_EQ(ballots.size(), 5u);
  EXPECT_EQ(ballots[0], 110);
  EXPECT_EQ(ballots[1], 100);  // the dissenting slot, in place
  EXPECT_EQ(ballots[2], 108);
  EXPECT_EQ(ballots[3], 107);
  EXPECT_EQ(ballots[4], 106);
  EXPECT_FALSE(report.success);  // five distinct ballots: no majority
  EXPECT_EQ(report.dissent, 4u);  // n - agreeing, with a singleton mode
}

TEST(VotingFarmTest, BallotStorageIsStableAcrossRounds) {
  // Steady-state rounds reuse the same backing storage (the hot-path
  // contract tests/alloc_test.cpp measures): the data() pointer must not
  // wander once the farm has run at its arity, including after a shrink.
  VotingFarm farm(7, [](Ballot in, std::size_t) { return in; });
  (void)farm.invoke(1);
  const Ballot* data = farm.last_ballots().data();
  for (int i = 2; i <= 50; ++i) {
    (void)farm.invoke(i);
    EXPECT_EQ(farm.last_ballots().data(), data);
  }
  farm.resize(3);  // shrink: capacity (and storage) retained
  (void)farm.invoke(51);
  EXPECT_EQ(farm.last_ballots().data(), data);
  EXPECT_EQ(farm.last_ballots().size(), 3u);
}

}  // namespace
