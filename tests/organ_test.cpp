// Tests for the Sect. 3.3 restoring organ core (src/autonomic/organ): the
// per-unit dissent judge behind both front-ends, and a property test that
// the in-process and the networked front-end reach the same verdicts and
// the same resizes from the same ballot stream.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "autonomic/organ.hpp"
#include "autonomic/service.hpp"
#include "cluster/replica.hpp"
#include "sim/simulator.hpp"

namespace {

using aft::autonomic::ReflectiveSwitchboard;
using aft::autonomic::RestoringOrgan;
using aft::detect::FaultJudgment;
using aft::vote::Ballot;
using aft::vote::RoundReport;
using aft::vote::VotingFarm;

ReflectiveSwitchboard::Policy fixed_policy(std::size_t replicas) {
  ReflectiveSwitchboard::Policy p;
  p.min_replicas = replicas;
  p.max_replicas = replicas;
  return p;
}

/// An in-process organ at a fixed arity whose slot s is held by unit s
/// (until a test maps another unit in).  `task` is called per unit.
struct FixedOrgan {
  FixedOrgan(std::size_t n, VotingFarm::Task unit_task)
      : task(std::move(unit_task)),
        units(n),
        organ(
            n,
            [this](Ballot in, std::size_t slot) {
              return task(in, units[slot]);
            },
            fixed_policy(n), 1) {
    std::iota(units.begin(), units.end(), std::size_t{0});
  }

  RoundReport round(Ballot input) {
    const RoundReport report = organ.vote(input);
    organ.settle(report, organ.farm().last_ballots(),
                 std::span<const std::size_t>(units).first(report.n));
    return report;
  }

  [[nodiscard]] std::vector<std::size_t> faulty() const {
    std::vector<std::size_t> out;
    for (std::size_t unit = 0; unit < 16; ++unit) {
      if (organ.judgment(unit) == FaultJudgment::kPermanentOrIntermittent) {
        out.push_back(unit);
      }
    }
    return out;
  }

  VotingFarm::Task task;
  std::vector<std::size_t> units;
  RestoringOrgan organ;
};

TEST(RestoringOrganTest, HealthyFarmJudgesNobodyFaulty) {
  FixedOrgan o(5, [](Ballot in, std::size_t) { return in; });
  for (int i = 0; i < 100; ++i) o.round(i);
  EXPECT_TRUE(o.faulty().empty());
  EXPECT_EQ(o.organ.judgment(0), FaultJudgment::kNoEvidence);
}

TEST(RestoringOrganTest, StuckUnitIsIdentified) {
  FixedOrgan o(5, [](Ballot in, std::size_t unit) {
    return unit == 2 ? 0 : in + 1;  // unit 2 is wedged at 0
  });
  for (int i = 1; i < 20; ++i) o.round(i);
  EXPECT_EQ(o.faulty(), std::vector<std::size_t>{2});
  EXPECT_EQ(o.organ.judgment(0), FaultJudgment::kNoEvidence);
}

TEST(RestoringOrganTest, SparseUpsetStaysTransient) {
  FixedOrgan o(5, [](Ballot in, std::size_t unit) {
    // Unit 4 diverges once every 50 rounds.
    return (unit == 4 && in % 50 == 0) ? in + 100 : in;
  });
  for (int i = 0; i < 500; ++i) o.round(i);
  EXPECT_TRUE(o.faulty().empty());
  EXPECT_EQ(o.organ.judgment(4), FaultJudgment::kTransient);
}

TEST(RestoringOrganTest, NoMajorityRoundsScoreNobody) {
  // Every unit answers differently: no majority, no ground truth.
  FixedOrgan o(3, [](Ballot in, std::size_t unit) {
    return in + static_cast<Ballot>(unit);
  });
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(o.round(i).success);
  for (std::size_t unit = 0; unit < 3; ++unit) {
    EXPECT_EQ(o.organ.judgment(unit), FaultJudgment::kNoEvidence);
  }
}

TEST(RestoringOrganTest, ReplacementRestartsHistory) {
  bool broken = true;
  FixedOrgan o(3, [&broken](Ballot in, std::size_t unit) {
    return (unit == 0 && broken) ? -1 : in;
  });
  std::vector<std::pair<std::size_t, FaultJudgment>> verdicts;
  o.organ.on_verdict([&verdicts](std::size_t unit, FaultJudgment v) {
    verdicts.emplace_back(unit, v);
  });
  for (int i = 1; i < 10; ++i) o.round(i);
  ASSERT_EQ(o.faulty(), std::vector<std::size_t>{0});
  ASSERT_FALSE(verdicts.empty());
  EXPECT_EQ(verdicts.back(),
            std::make_pair(std::size_t{0}, FaultJudgment::kPermanentOrIntermittent));

  // Repair in place (the networked treatment): the unit's history restarts
  // and the hook hears the re-arm.
  broken = false;
  o.organ.reset(0);
  EXPECT_EQ(verdicts.back(),
            std::make_pair(std::size_t{0}, FaultJudgment::kNoEvidence));
  for (int i = 1; i < 10; ++i) o.round(i);
  EXPECT_TRUE(o.faulty().empty());
}

TEST(RestoringOrganTest, VerdictSurvivesShrinkAndRegrowAndASpareStartsClean) {
  // Judge channels are keyed by unit, not by slot: a unit parked by a
  // shrink keeps its verdict when a regrow brings it back, and a spare
  // mapped into its slot has no history at all.
  FixedOrgan o(7, [](Ballot in, std::size_t unit) {
    return unit == 5 ? -1 : in;
  });
  for (int i = 1; i < 10; ++i) o.round(i);
  ASSERT_EQ(o.faulty(), std::vector<std::size_t>{5});

  o.organ.farm().resize(3);
  for (int i = 10; i < 30; ++i) o.round(i);
  EXPECT_EQ(o.organ.judgment(5), FaultJudgment::kPermanentOrIntermittent);

  o.organ.farm().resize(7);
  EXPECT_EQ(o.organ.judgment(5), FaultJudgment::kPermanentOrIntermittent);
  o.units[5] = 7;  // a spare takes the slot
  EXPECT_EQ(o.organ.judgment(7), FaultJudgment::kNoEvidence);
  o.round(30);
  EXPECT_EQ(o.organ.judgment(7), FaultJudgment::kNoEvidence);
  EXPECT_EQ(o.organ.judgment(5), FaultJudgment::kPermanentOrIntermittent);
}

// --- The two front-ends agree ------------------------------------------------

/// (round, unit, verdict).
using Record = std::tuple<std::uint64_t, std::size_t, FaultJudgment>;

struct History {
  std::vector<Record> verdicts;
  std::vector<std::pair<std::uint64_t, std::size_t>> resizes;
};

constexpr std::size_t kPool = 5;
constexpr std::uint64_t kRounds = 60;

/// Unit 1 is wedged from round 20 on; unit 2 flips on a sparse schedule.
Ballot scripted(Ballot input, std::size_t unit) {
  if (unit == 1 && input >= 20) return -7;
  if (unit == 2 && input % 9 == 4) return input + 1000;
  return input * 3;
}

ReflectiveSwitchboard::Policy adaptive_policy() {
  ReflectiveSwitchboard::Policy p;
  p.min_replicas = 3;
  p.max_replicas = kPool;
  p.step = 2;
  p.lower_after = 4;
  return p;
}

/// Polls one front-end's organ after a round: verdict moves per unit and
/// arity moves.  Stops at (and includes) the first permanent verdict.
class Recorder {
 public:
  explicit Recorder(std::size_t arity) : arity_(arity), last_(kPool) {}

  void after_round(std::uint64_t round, const RestoringOrgan& organ) {
    if (done_) return;
    for (std::size_t unit = 0; unit < kPool; ++unit) {
      const FaultJudgment now = organ.judgment(unit);
      if (now == last_[unit]) continue;
      last_[unit] = now;
      history.verdicts.emplace_back(round, unit, now);
      if (now == FaultJudgment::kPermanentOrIntermittent) done_ = true;
    }
    if (organ.farm().replicas() != arity_) {
      arity_ = organ.farm().replicas();
      history.resizes.emplace_back(round, arity_);
    }
  }

  [[nodiscard]] bool done() const noexcept { return done_; }

  History history;

 private:
  std::size_t arity_;
  std::vector<FaultJudgment> last_;
  bool done_ = false;
};

History run_in_process() {
  aft::autonomic::AutonomicReplicationService::Options options;
  options.initial_replicas = 3;
  options.policy = adaptive_policy();
  options.retire_faulty_units = true;
  aft::autonomic::AutonomicReplicationService service(scripted, options);
  Recorder rec(service.replicas());
  for (std::uint64_t k = 0; k < kRounds && !rec.done(); ++k) {
    service.call(static_cast<Ballot>(k));
    rec.after_round(k, service.organ());
  }
  return rec.history;
}

History run_networked() {
  aft::net::LinkFaults clean;
  clean.latency = 2;
  aft::cluster::ClusterParams params;
  params.pool = kPool;
  params.wire.to_replica = clean;
  params.wire.from_replica = clean;
  params.policy = adaptive_policy();
  params.call.deadline = 15;
  params.heartbeat_period = 4;
  params.membership.deadline = 10;
  aft::sim::Simulator sim;
  aft::cluster::ReplicatedService service(sim, params, scripted, 3);
  service.start();
  Recorder rec(service.farm().replicas());
  for (std::uint64_t k = 0; k < kRounds && !rec.done(); ++k) {
    bool completed = false;
    service.invoke(static_cast<Ballot>(k),
                   [&completed](aft::cluster::InvokeOutcome,
                                const RoundReport&) { completed = true; });
    sim.run_until(sim.now() + 30);
    EXPECT_TRUE(completed) << "round " << k;
    rec.after_round(k, service.organ());
  }
  EXPECT_EQ(service.counters().evictions, 0u);
  EXPECT_EQ(service.counters().rpc_failures, 0u);
  return rec.history;
}

TEST(RestoringOrganTest, BothFrontEndsReachTheSameVerdictsAndResizes) {
  const History in_process = run_in_process();
  const History networked = run_networked();
  ASSERT_FALSE(in_process.verdicts.empty());
  EXPECT_EQ(std::get<2>(in_process.verdicts.back()),
            FaultJudgment::kPermanentOrIntermittent);
  EXPECT_EQ(std::get<1>(in_process.verdicts.back()), 1u);
  EXPECT_FALSE(in_process.resizes.empty());
  EXPECT_EQ(in_process.verdicts, networked.verdicts);
  EXPECT_EQ(in_process.resizes, networked.resizes);
}

}  // namespace
