// Cross-cutting property tests: invariants that must hold over every
// memory access method, randomized topologies, voting algebra, the
// dual-threshold filter, and the series logger.
#include <gtest/gtest.h>

#include <memory>

#include "arch/dag.hpp"
#include "detect/dual_threshold.hpp"
#include "hw/memory_chip.hpp"
#include "mem/method_ecc.hpp"
#include "mem/method_mirror.hpp"
#include "mem/method_raw.hpp"
#include "mem/method_remap.hpp"
#include "mem/method_tmr.hpp"
#include "util/rng.hpp"
#include "util/series.hpp"
#include "vote/dtof.hpp"
#include "vote/voter.hpp"

namespace {

// --- Invariants over every access method ---------------------------------------

struct MethodRig {
  aft::hw::MemoryChip c0{128}, c1{128}, c2{128};
  std::unique_ptr<aft::mem::IMemoryAccessMethod> method;

  explicit MethodRig(int which) {
    using namespace aft::mem;
    switch (which) {
      case 0: method = std::make_unique<RawAccess>(c0); break;
      case 1: method = std::make_unique<EccScrubAccess>(c0); break;
      case 2: method = std::make_unique<EccRemapAccess>(c0); break;
      case 3: method = std::make_unique<SelMirrorAccess>(c0, c1); break;
      default: method = std::make_unique<TmrEccAccess>(c0, c1, c2); break;
    }
  }
};

class AllMethodsTest : public ::testing::TestWithParam<int> {};

TEST_P(AllMethodsTest, FaultFreeRoundTripIsExact) {
  MethodRig rig(GetParam());
  aft::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = rig.method->capacity_words();
  std::vector<std::uint64_t> expected(n);
  for (std::size_t w = 0; w < n; ++w) {
    expected[w] = rng.next();
    ASSERT_TRUE(rig.method->write(w, expected[w]));
  }
  rig.method->scrub_step();  // maintenance must not disturb clean data
  for (std::size_t w = 0; w < n; ++w) {
    const auto r = rig.method->read(w);
    ASSERT_EQ(r.status, aft::mem::ReadStatus::kOk);
    ASSERT_EQ(r.value, expected[w]);
  }
  EXPECT_EQ(rig.method->stats().data_losses, 0u);
}

TEST_P(AllMethodsTest, OverwriteTakesEffect) {
  MethodRig rig(GetParam());
  rig.method->write(5, 111);
  rig.method->write(5, 222);
  EXPECT_EQ(rig.method->read(5).value, 222u);
}

TEST_P(AllMethodsTest, CapacityIsHonest) {
  MethodRig rig(GetParam());
  const std::size_t n = rig.method->capacity_words();
  EXPECT_GT(n, 0u);
  EXPECT_LE(n, 128u);
  // M0/M1 address-check at the device; M2..M4 at the method: either way the
  // first out-of-capacity address must not be silently accepted as valid.
  if (GetParam() >= 2) {
    EXPECT_THROW((void)rig.method->read(n), std::out_of_range);
  }
}

TEST_P(AllMethodsTest, ToleranceClaimsAreMonotoneInCost) {
  // Any method claiming to tolerate f also tolerates everything f covers.
  MethodRig rig(GetParam());
  using aft::mem::FailureSemantics;
  const FailureSemantics all[] = {
      FailureSemantics::kF0Stable, FailureSemantics::kF1TransientCmos,
      FailureSemantics::kF2StuckAtCmos, FailureSemantics::kF3SdramSel,
      FailureSemantics::kF4SdramSelSeu};
  for (const auto stronger : all) {
    if (!rig.method->tolerates(stronger)) continue;
    for (const auto weaker : all) {
      if (aft::mem::covers(stronger, weaker)) {
        EXPECT_TRUE(rig.method->tolerates(weaker))
            << rig.method->name() << " claims " << to_string(stronger)
            << " but not the weaker " << to_string(weaker);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(M0toM4, AllMethodsTest, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "M" + std::to_string(param_info.param);
                         });

// --- Randomized DAG topological-order property -----------------------------------

TEST(DagPropertyTest, RandomDagsTopoOrderRespectsEveryEdge) {
  aft::util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(0, 10);
    aft::arch::DagSnapshot snapshot;
    snapshot.name = "random";
    for (std::size_t i = 0; i < n; ++i) {
      const std::string index = std::to_string(i);  // GCC 12 -Wrestrict
      snapshot.nodes.push_back("n" + index);
    }
    // Edges only i -> j with i < j: guaranteed acyclic.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.3)) {
          snapshot.edges.emplace_back(snapshot.nodes[i], snapshot.nodes[j]);
        }
      }
    }
    aft::arch::ReflectiveDag dag;
    dag.inject(snapshot);
    const auto order = dag.topological_order();
    ASSERT_EQ(order.size(), n);
    auto position = [&](const std::string& id) {
      return std::find(order.begin(), order.end(), id) - order.begin();
    };
    for (const auto& [from, to] : snapshot.edges) {
      ASSERT_LT(position(from), position(to))
          << "edge " << from << "->" << to << " violated in trial " << trial;
    }
  }
}

// --- Voting algebra properties -------------------------------------------------------

TEST(VotePropertyTest, MajorityImpliesStrictCount) {
  aft::util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<aft::vote::Ballot> ballots;
    const std::size_t n = 1 + rng.uniform_int(0, 12);
    for (std::size_t i = 0; i < n; ++i) {
      ballots.push_back(static_cast<aft::vote::Ballot>(rng.uniform_int(0, 3)));
    }
    const auto outcome = aft::vote::majority_vote(ballots);
    // Validity: the winner is one of the ballots; agreement counts are
    // consistent; majority iff strict.
    ASSERT_EQ(outcome.agreeing + outcome.dissent, n);
    if (outcome.has_majority) {
      ASSERT_GT(outcome.agreeing * 2, n);
      ASSERT_NE(std::find(ballots.begin(), ballots.end(), outcome.winner),
                ballots.end());
    } else {
      ASSERT_LE(outcome.agreeing * 2, n);
    }
    // dtof consistency.
    const auto d = aft::vote::dtof_of_outcome(outcome);
    ASSERT_GE(d, 0);
    ASSERT_LE(d, aft::vote::dtof_max(n));
  }
}

TEST(VotePropertyTest, DtofIsMonotoneInDissent) {
  for (std::size_t n = 1; n <= 31; n += 2) {
    for (std::size_t m = 1; m <= n; ++m) {
      ASSERT_LE(aft::vote::dtof(n, m), aft::vote::dtof(n, m - 1));
    }
  }
}

// --- DualThresholdAlphaCount -----------------------------------------------------------

TEST(DualThresholdTest, ParamValidation) {
  using D = aft::detect::DualThresholdAlphaCount;
  EXPECT_THROW(D(D::Params{.decay = 1.0, .high = 3, .low = 1}), std::invalid_argument);
  EXPECT_THROW(D(D::Params{.decay = 0.5, .high = 1, .low = 1}), std::invalid_argument);
  EXPECT_THROW(D(D::Params{.decay = 0.5, .high = 1, .low = -0.1}),
               std::invalid_argument);
}

TEST(DualThresholdTest, SuspendAndReintegrate) {
  aft::detect::DualThresholdAlphaCount d(
      aft::detect::DualThresholdAlphaCount::Params{.decay = 0.5, .high = 3, .low = 0.5});
  for (int i = 0; i < 4; ++i) d.record(true);  // score 4 > 3
  EXPECT_TRUE(d.suspended());
  EXPECT_EQ(d.suspensions(), 1u);
  // Healthy streak decays 4 -> 2 -> 1 -> 0.5 -> 0.25 < 0.5: reintegrated.
  int healthy_rounds = 0;
  while (d.suspended() && healthy_rounds < 100) {
    d.record(false);
    ++healthy_rounds;
  }
  EXPECT_FALSE(d.suspended());
  EXPECT_EQ(healthy_rounds, 4);
  EXPECT_EQ(d.reintegrations(), 1u);
}

TEST(DualThresholdTest, HysteresisPreventsFlapping) {
  // A unit oscillating right at the single threshold would flap; with
  // hysteresis its state changes at most twice over the oscillation.
  aft::detect::DualThresholdAlphaCount d(
      aft::detect::DualThresholdAlphaCount::Params{.decay = 0.7, .high = 3, .low = 0.3});
  for (int i = 0; i < 5; ++i) d.record(true);
  ASSERT_TRUE(d.suspended());
  std::uint64_t transitions = d.suspensions() + d.reintegrations();
  // Alternate error/ok: score hovers between ~2.6 and ~3.6 — inside the
  // hysteresis band once suspended, so no state change occurs.
  for (int i = 0; i < 100; ++i) d.record(i % 2 == 0);
  EXPECT_EQ(d.suspensions() + d.reintegrations(), transitions);
  EXPECT_TRUE(d.suspended());
}

TEST(DualThresholdTest, IntermittentUnitIsSuspendedDuringBurstsOnly) {
  aft::detect::DualThresholdAlphaCount d(
      aft::detect::DualThresholdAlphaCount::Params{.decay = 0.5, .high = 3, .low = 0.2});
  int suspended_rounds = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 10; ++i) d.record(true);    // burst
    for (int i = 0; i < 50; ++i) {
      d.record(false);
      if (d.suspended()) ++suspended_rounds;
    }
  }
  EXPECT_EQ(d.suspensions(), 5u);
  EXPECT_EQ(d.reintegrations(), 5u);
  EXPECT_LT(suspended_rounds, 5 * 50);  // it spends the calm stretches in service
}

// --- SeriesLogger ---------------------------------------------------------------------

TEST(SeriesLoggerTest, Validation) {
  EXPECT_THROW(aft::util::SeriesLogger({}), std::invalid_argument);
  aft::util::SeriesLogger log({"t", "x"});
  EXPECT_THROW(log.append({1.0}), std::invalid_argument);
  EXPECT_THROW((void)log.row(0), std::out_of_range);
  EXPECT_THROW((void)log.column("nope"), std::invalid_argument);
}

TEST(SeriesLoggerTest, CsvShape) {
  aft::util::SeriesLogger log({"t", "replicas", "dtof"});
  log.append({0, 3, 2});
  log.append({1, 5, 3});
  const std::string csv = log.render_csv();
  EXPECT_EQ(csv, "t,replicas,dtof\n0,3,2\n1,5,3\n");
  EXPECT_EQ(log.column("replicas"), (std::vector<double>{3, 5}));
  EXPECT_EQ(log.rows(), 2u);
}

}  // namespace
