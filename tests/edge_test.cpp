// Edge-case grab bag: lot variability scaling, experiment CSV export, and
// corner behaviours across modules that the per-module suites don't pin.
#include <gtest/gtest.h>

#include "autonomic/experiment.hpp"
#include "hw/fault_injector.hpp"
#include "mem/selector.hpp"
#include "util/histogram.hpp"
#include "vote/voter.hpp"

namespace {

// --- hw::scaled: lot-to-lot variability ------------------------------------------

TEST(LotVariabilityTest, ScaledMultipliesRatesOnly) {
  const aft::hw::FaultProfile base = aft::hw::profiles::sdram_sel_seu();
  const aft::hw::FaultProfile bad_lot = aft::hw::scaled(base, 10.0);
  EXPECT_DOUBLE_EQ(bad_lot.seu_rate, base.seu_rate * 10);
  EXPECT_DOUBLE_EQ(bad_lot.sel_rate, base.sel_rate * 10);
  EXPECT_DOUBLE_EQ(bad_lot.sefi_rate, base.sefi_rate * 10);
  EXPECT_DOUBLE_EQ(bad_lot.stuck_rate, base.stuck_rate * 10);
  EXPECT_DOUBLE_EQ(bad_lot.multi_bit_fraction, base.multi_bit_fraction);
  EXPECT_TRUE(aft::hw::scaled(aft::hw::profiles::stable(), 100.0).benign());
}

TEST(LotVariabilityTest, OrderOfMagnitudeShowsUpInCampaigns) {
  aft::hw::MemoryChip golden_chip(64), bad_chip(64);
  const auto base = aft::hw::profiles::cmos();
  aft::hw::FaultInjector golden(golden_chip, aft::hw::scaled(base, 0.5), 1);
  aft::hw::FaultInjector bad(bad_chip, aft::hw::scaled(base, 20.0), 1);
  golden.run(200000);
  bad.run(200000);
  ASSERT_GT(bad.log().seu, 0u);
  EXPECT_GT(static_cast<double>(bad.log().seu),
            10.0 * static_cast<double>(golden.log().seu + 1));
}

// --- Experiment CSV export ----------------------------------------------------------

TEST(ExperimentCsvTest, SeriesRoundTripShape) {
  aft::autonomic::ExperimentConfig config;
  config.series_sample_every = 100;
  const auto result = aft::autonomic::run_adaptation_experiment(
      config, {aft::autonomic::DisturbancePhase{1000, 0.0}});
  const std::string csv = result.series_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "step,replicas,dtof,fault_injected");
  // 10 samples + header = 11 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 11);
  EXPECT_NE(csv.find("\n0,3,2,0\n"), std::string::npos);
}

// --- Misc corners --------------------------------------------------------------------

TEST(HistogramEdgeTest, ModeTieGoesToSmallestKey) {
  aft::util::Histogram h;
  h.add(5, 3);
  h.add(2, 3);
  EXPECT_EQ(h.mode(), 2);  // map order: smallest key wins the tie
}

TEST(HistogramEdgeTest, NegativeKeysSupported) {
  aft::util::Histogram h;
  h.add(-7, 2);
  EXPECT_EQ(h.count(-7), 2u);
  EXPECT_EQ(h.mode(), -7);
}

TEST(VoterEdgeTest, AllDistinctBallotsNeverHaveMajorityBeyondOne) {
  for (std::size_t n = 2; n <= 9; ++n) {
    std::vector<aft::vote::Ballot> ballots;
    for (std::size_t i = 0; i < n; ++i) {
      ballots.push_back(static_cast<aft::vote::Ballot>(i));
    }
    EXPECT_FALSE(aft::vote::majority_vote(ballots).has_majority) << n;
  }
}

TEST(SelectorEdgeTest, EmptyMachineSelectsNothing) {
  aft::hw::Machine empty("no-banks");
  aft::mem::MethodSelector selector;
  const auto report = selector.analyze(empty);
  // No banks: behaviour resolves to f0 (vacuous union) and M0 would be
  // adequate — but it needs one device, which the machine lacks.
  EXPECT_FALSE(report.selected());
}

TEST(SelectorEdgeTest, CustomCatalogRespected) {
  // A catalog with only M4: even an f0 platform binds it (cheapest adequate
  // of what EXISTS), proving the selector does not hardcode names.
  std::vector<aft::mem::MethodDescriptor> catalog;
  for (auto& d : aft::mem::standard_catalog()) {
    if (d.name == "M4-tmr-ecc") catalog.push_back(std::move(d));
  }
  aft::mem::MethodSelector selector(aft::mem::KnowledgeBase::with_defaults(),
                                    std::move(catalog));
  aft::hw::Machine laptop = aft::hw::machines::laptop(64);
  const auto report = selector.analyze(laptop);
  EXPECT_FALSE(report.selected());  // laptop has only 2 banks; M4 needs 3

  aft::hw::Machine obc = aft::hw::machines::satellite_obc(64);
  const auto report2 = selector.analyze(obc);
  ASSERT_TRUE(report2.selected());
  EXPECT_EQ(report2.chosen, "M4-tmr-ecc");
}

}  // namespace
