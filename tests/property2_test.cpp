// Second property-test wave: randomized system-level invariants for the
// voting farm, the switchboard, the middleware under random fault loads,
// ECC multi-bit behaviour, and manifest parse stability.
#include <gtest/gtest.h>

#include <memory>

#include "arch/middleware.hpp"
#include "autonomic/switchboard.hpp"
#include "hw/memory_chip.hpp"
#include "manifest/manifest.hpp"
#include "mem/ecc.hpp"
#include "util/rng.hpp"
#include "vote/voting_farm.hpp"

namespace {

// --- VotingFarm success iff corruption below majority --------------------------------

struct FarmCase {
  std::size_t replicas;
  std::size_t corrupted;
};

class FarmMajorityTest : public ::testing::TestWithParam<FarmCase> {};

TEST_P(FarmMajorityTest, SuccessExactlyWhenCorrectReplicasHoldMajority) {
  const auto [n, corrupted] = GetParam();
  aft::vote::VotingFarm farm(n, [corrupted = corrupted](aft::vote::Ballot in,
                                                        std::size_t replica) {
    // Distinct wrong values: the hardest case for exact voting.
    return replica < corrupted ? in + 1000 + static_cast<aft::vote::Ballot>(replica)
                               : in;
  });
  const auto report = farm.invoke(7);
  const bool correct_majority = (n - corrupted) * 2 > n;
  EXPECT_EQ(report.success, correct_majority) << "n=" << n << " c=" << corrupted;
  if (report.success) {
    EXPECT_EQ(report.value, 7);
    EXPECT_EQ(report.dissent, corrupted);
    EXPECT_EQ(report.distance, aft::vote::dtof(n, corrupted));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FarmMajorityTest,
    ::testing::Values(FarmCase{3, 0}, FarmCase{3, 1}, FarmCase{3, 2},
                      FarmCase{5, 2}, FarmCase{5, 3}, FarmCase{7, 3},
                      FarmCase{7, 4}, FarmCase{9, 4}, FarmCase{9, 5}),
    [](const ::testing::TestParamInfo<FarmCase>& param_info) {
      return "n" + std::to_string(param_info.param.replicas) + "_c" +
             std::to_string(param_info.param.corrupted);
    });

// --- Switchboard bounds invariant ------------------------------------------------------

TEST(SwitchboardPropertyTest, ReplicasAlwaysWithinBoundsAndOdd) {
  aft::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    aft::vote::VotingFarm farm(3, [](aft::vote::Ballot in, std::size_t) { return in; });
    aft::autonomic::ReflectiveSwitchboard::Policy policy;
    policy.lower_after = 5 + rng.uniform_int(0, 50);
    aft::autonomic::ReflectiveSwitchboard board(
        farm, policy, static_cast<std::uint64_t>(trial));
    for (int round = 0; round < 2000; ++round) {
      const std::size_t n = farm.replicas();
      // Random dissent between 0 and n (no-majority when > n/2).
      const auto dissent = static_cast<std::size_t>(rng.uniform_int(0, n));
      aft::vote::RoundReport report;
      report.n = n;
      report.dissent = dissent;
      report.success = dissent * 2 < n;
      report.distance = report.success ? aft::vote::dtof(n, dissent) : 0;
      board.observe(report);
      ASSERT_GE(farm.replicas(), policy.min_replicas);
      ASSERT_LE(farm.replicas(), policy.max_replicas);
      ASSERT_EQ(farm.replicas() % 2, 1u);
    }
  }
}

// --- Middleware under random fault loads ------------------------------------------------

TEST(MiddlewarePropertyTest, FailStopFailsIffAnyFailureDegradedNeverFails) {
  aft::util::Xoshiro256 rng(2025);
  for (int trial = 0; trial < 100; ++trial) {
    aft::arch::Middleware mw;
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 4));
    aft::arch::DagSnapshot snapshot;
    snapshot.name = "chain";
    std::vector<std::shared_ptr<aft::arch::ScriptedComponent>> components;
    for (int i = 0; i < n; ++i) {
      const std::string index = std::to_string(i);  // GCC 12 -Wrestrict
      const std::string id = "c" + index;
      auto c = std::make_shared<aft::arch::ScriptedComponent>(
          id, [](std::int64_t v) { return v + 1; });
      mw.register_component(c);
      components.push_back(c);
      snapshot.nodes.push_back(id);
      if (i > 0) snapshot.edges.emplace_back("c" + std::to_string(i - 1), id);
    }
    mw.deploy(snapshot);

    int failing = 0;
    for (auto& c : components) {
      if (rng.bernoulli(0.3)) {
        c->fail_next(2);  // enough for both runs below
        ++failing;
      }
    }
    const auto fail_stop = mw.run(0, aft::arch::Middleware::FailurePolicy::kFailStop);
    EXPECT_EQ(fail_stop.ok, failing == 0);

    const auto degraded =
        mw.run(0, aft::arch::Middleware::FailurePolicy::kDegradedValue);
    EXPECT_TRUE(degraded.ok);
    EXPECT_EQ(degraded.degraded, failing > 0);
    // Value = input + one increment per non-failing component.
    // (fail_stop consumed one scripted failure per failing component; the
    // degraded run consumes the second.)
    EXPECT_EQ(degraded.value, n - failing);
    EXPECT_EQ(degraded.trace.size(), static_cast<std::size_t>(n));
  }
}

// --- ECC multi-bit behaviour --------------------------------------------------------------

TEST(EccPropertyTest, OddWeightErrorsNeverDecodeClean) {
  aft::util::Xoshiro256 rng(31);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::uint64_t data = rng.next();
    aft::hw::Word72 w = aft::mem::ecc_encode(data);
    const auto weight = 1 + 2 * rng.uniform_int(0, 2);  // 1, 3 or 5 flips
    std::vector<unsigned> bits;
    while (bits.size() < weight) {
      const auto b = static_cast<unsigned>(rng.uniform_int(0, 71));
      if (std::find(bits.begin(), bits.end(), b) == bits.end()) bits.push_back(b);
    }
    for (const unsigned b : bits) aft::hw::flip_bit(w, b);
    const auto dec = aft::mem::ecc_decode(w);
    // Odd-weight errors always trip the overall parity: never kClean.
    ASSERT_NE(dec.status, aft::mem::EccStatus::kClean);
    if (weight == 1) {
      ASSERT_EQ(dec.status, aft::mem::EccStatus::kCorrectedSingle);
      ASSERT_EQ(dec.data, data);
    }
  }
}

TEST(EccPropertyTest, EvenWeightErrorsAreNeverMiscorrected) {
  // The SEC-DED guarantee, stated precisely: weight-2 errors are always
  // kDetectedDouble; weight-4 errors are never *miscorrected* (even parity
  // rules out the corrected-single verdict) — but four flips whose
  // positions XOR to zero legitimately alias to another valid codeword
  // (kClean with wrong data), the code's documented limit.  That residual
  // is exactly why f4-grade environments need M4's voting on top of ECC.
  aft::util::Xoshiro256 rng(33);
  std::uint64_t weight4_aliases = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::uint64_t data = rng.next();
    aft::hw::Word72 w = aft::mem::ecc_encode(data);
    const auto weight = 2 + 2 * rng.uniform_int(0, 1);  // 2 or 4 flips
    std::vector<unsigned> bits;
    while (bits.size() < weight) {
      const auto b = static_cast<unsigned>(rng.uniform_int(0, 71));
      if (std::find(bits.begin(), bits.end(), b) == bits.end()) bits.push_back(b);
    }
    for (const unsigned b : bits) aft::hw::flip_bit(w, b);
    const auto dec = aft::mem::ecc_decode(w);
    ASSERT_NE(dec.status, aft::mem::EccStatus::kCorrectedSingle);
    if (weight == 2) {
      ASSERT_EQ(dec.status, aft::mem::EccStatus::kDetectedDouble);
    } else if (dec.status == aft::mem::EccStatus::kClean) {
      ++weight4_aliases;
    }
  }
  // Aliasing exists but must be rare (syndrome space is 72+ wide).
  EXPECT_LT(weight4_aliases, 100u);
}

// --- Manifest parse stability ----------------------------------------------------------------

TEST(ManifestPropertyTest, ParseSerializeIsIdempotentOnRandomManifests) {
  aft::util::Xoshiro256 rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    aft::manifest::Manifest m;
    m.name = "m" + std::to_string(trial);
    m.version = std::to_string(rng.uniform_int(1, 9));
    const auto n_assumptions = rng.uniform_int(0, 5);
    for (std::uint64_t a = 0; a < n_assumptions; ++a) {
      aft::manifest::AssumptionRecord record;
      record.id = "a" + std::to_string(a);
      record.statement = "statement " + std::to_string(rng.next() % 100);
      record.subject = static_cast<aft::core::Subject>(rng.uniform_int(0, 3));
      record.origin = "origin";
      record.rationale = "rationale";
      record.stated_at = static_cast<aft::core::BindingTime>(rng.uniform_int(0, 3));
      record.expectation.key = "k" + std::to_string(a);
      record.expectation.op = static_cast<aft::contract::Op>(rng.uniform_int(0, 5));
      switch (rng.uniform_int(0, 3)) {
        case 0: record.expectation.bound = rng.bernoulli(0.5); break;
        case 1:
          record.expectation.bound = static_cast<std::int64_t>(rng.uniform_int(0, 1000));
          break;
        case 2: record.expectation.bound = rng.uniform01() * 100; break;
        default: record.expectation.bound = std::string("value"); break;
      }
      m.assumptions.push_back(std::move(record));
    }
    const std::string once = m.serialize();
    const std::string twice = aft::manifest::Manifest::parse(once).serialize();
    ASSERT_EQ(once, twice) << "trial " << trial;
  }
}

}  // namespace
