// Tests for voters, dtof (including the exact Fig. 5 table), and the
// Voting Farm restoring organ.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>

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

TEST(MajorityVoteInplaceTest, MatchesCopyingVariant) {
  std::vector<Ballot> v{7, 3, 7, 3, 7};
  const auto copying = majority_vote(v);
  const auto inplace = majority_vote_inplace(v);
  EXPECT_EQ(copying.has_majority, inplace.has_majority);
  EXPECT_EQ(copying.winner, inplace.winner);
  EXPECT_EQ(copying.dissent, inplace.dissent);
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
  }
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
  // though the voter sorts its workspace in place — i.e. the farm really
  // does keep the raw ballots and the scratch separate.  A descending
  // ballot pattern makes any accidental aliasing with the sorted scratch
  // visible immediately.
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
