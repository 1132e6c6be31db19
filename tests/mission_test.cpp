// System-level integration: the mission_simulator composition as an
// asserted test — launch-time self-test + manifest re-qualification, the
// three run-time strategies cooperating on one kernel, and gestalt
// propagation driven by a real clash.
#include <gtest/gtest.h>

#include <memory>

#include "autonomic/service.hpp"
#include "core/gestalt.hpp"
#include "core/web.hpp"
#include "detect/watchdog.hpp"
#include "env/platform.hpp"
#include "ftpat/pattern_switcher.hpp"
#include "ftpat/reconfiguration.hpp"
#include "ftpat/redoing.hpp"
#include "hw/machine.hpp"
#include "manifest/manifest.hpp"
#include "mem/adaptive.hpp"
#include "util/rng.hpp"

namespace {

TEST(MissionIntegration, LaunchGateRefusesADishonestPlatform) {
  aft::env::PlatformFeatures advertised{.hardware_interlocks = true,
                                        .exception_trapping = true,
                                        .watchdog_timer = true,
                                        .ecc_reporting = true};
  aft::env::PlatformFeatures actual = advertised;
  actual.watchdog_timer = false;  // the lie

  aft::env::PlatformUnderTest platform("obc", advertised, actual);
  aft::core::Context ctx;
  const auto report = aft::env::run_self_test(platform, &ctx);
  EXPECT_FALSE(report.safe_to_operate());

  // The manifest assumption depending on the watchdog must clash against
  // the PROBED truth even though the spec sheet said otherwise.
  aft::manifest::Manifest m;
  m.name = "obc-sw";
  m.assumptions.push_back(aft::manifest::AssumptionRecord{
      .id = "platform.watchdog",
      .statement = "the platform provides a watchdog timer",
      .subject = aft::core::Subject::kExecutionEnvironment,
      .origin = "safety case",
      .rationale = "hang detection",
      .stated_at = aft::core::BindingTime::kDesign,
      .expectation = aft::contract::clause_eq("platform.watchdog-timer", true)});
  const auto clashes = m.requalify(ctx);
  ASSERT_EQ(clashes.size(), 1u);
  EXPECT_EQ(clashes[0].assumption_id, "platform.watchdog");
}

TEST(MissionIntegration, ThreeStrategiesCooperateOnOneKernel) {
  // Memory (3.1) + pattern switch (3.2) + autonomic replication (3.3),
  // sharing one simulator and one context.
  aft::sim::Simulator sim;
  aft::core::Context ctx;

  // 3.1: adaptive memory on the OBC.
  aft::hw::Machine machine = aft::hw::machines::satellite_obc(128);
  aft::mem::AdaptiveMemoryManager memory(machine, aft::mem::MethodSelector{});
  ASSERT_EQ(memory.current_method(), "M3-sel-mirror");
  for (std::size_t w = 0; w < 64; ++w) memory.method().write(w, w + 7);

  // 3.2: watchdog-driven pattern switcher.
  auto plus_one = [](std::int64_t v) { return v + 1; };
  aft::arch::Middleware mw;
  auto unit = std::make_shared<aft::arch::ScriptedComponent>("u", plus_one);
  auto spare = std::make_shared<aft::arch::ScriptedComponent>("s", plus_one);
  mw.register_component(std::make_shared<aft::ftpat::RedoingComponent>("c", unit, 2));
  mw.register_component(std::make_shared<aft::ftpat::ReconfigurationComponent>(
      "c2v", std::vector<std::shared_ptr<aft::arch::Component>>{unit, spare}));
  aft::ftpat::PatternSwitcher switcher(
      mw, aft::arch::DagSnapshot{"D1", {"c"}, {}},
      aft::arch::DagSnapshot{"D2", {"c2v"}, {}},
      aft::ftpat::PatternSwitcher::Config{.monitored_channel = "c"});
  aft::detect::Watchdog dog(sim, 10, [&](aft::sim::SimTime) { switcher.run(1); });
  aft::detect::WatchedTask task(sim, dog, 5);
  dog.start();
  task.start();

  // 3.3: autonomic telemetry replication publishing into the shared context.
  aft::util::Xoshiro256 rng(5);
  double radiation = 0.0;
  // A named Options, not a designated-initializer temporary: GCC 12 reports
  // -Wmaybe-uninitialized on the temporary's defaulted string members.
  aft::autonomic::AutonomicReplicationService::Options options;
  options.policy.lower_after = 200;
  aft::autonomic::AutonomicReplicationService telemetry(
      [&](aft::vote::Ballot in, std::size_t replica) -> aft::vote::Ballot {
        return (radiation > 0 && rng.bernoulli(radiation))
                   ? in + 90 + static_cast<aft::vote::Ballot>(replica)
                   : in;
      },
      options, &ctx);

  // Phase 1: calm.
  for (int t = 0; t < 200; ++t) {
    sim.run_until(sim.now() + 1);
    telemetry.call(t);
  }
  EXPECT_EQ(telemetry.replicas(), 3u);
  EXPECT_EQ(switcher.active_snapshot(), "D1");

  // Phase 2: radiation ramps up (the dtof early-warning fires on the mild
  // onset, so the farm is provisioned before the peak), plus a memory
  // latch-up and a permanent unit loss.
  machine.bank(0).chip->inject_latch_up();
  task.inject_permanent_fault();
  unit->fail_always();
  for (int t = 0; t < 400; ++t) {
    radiation = t < 100 ? 0.01 : (t < 200 ? 0.05 : 0.15);
    sim.run_until(sim.now() + 1);
    telemetry.call(t);
    if (t % 16 == 0) memory.method().scrub_step();
  }
  // 3.3 grew; 3.2 switched; 3.1's duplex absorbed the latch-up in place.
  EXPECT_GT(telemetry.replicas(), 3u);
  EXPECT_EQ(telemetry.failures(), 0u);
  EXPECT_TRUE(switcher.switched());
  EXPECT_FALSE(memory.step());  // f3 binding already adequate: no escalation
  for (std::size_t w = 0; w < 64; ++w) {
    ASSERT_EQ(memory.method().read(w).value, w + 7);
  }

  // Phase 3: calm again; redundancy decays; architecture keeps computing.
  radiation = 0.0;
  for (int t = 0; t < 1500; ++t) {
    sim.run_until(sim.now() + 1);
    telemetry.call(t);
  }
  EXPECT_EQ(telemetry.replicas(), 3u);
  EXPECT_TRUE(switcher.run(1).ok);
  // The context carries the published deductions.
  EXPECT_TRUE(ctx.get<double>("env.disturbance").has_value());
  EXPECT_EQ(ctx.get<std::int64_t>("dim.redundancy.observed"), 3);
}

TEST(MissionIntegration, ClashFansOutThroughWebAndGestalt) {
  aft::core::AssumptionWeb web;
  web.add_dependency("platform.ecc", "mem.binding-adequate");
  web.add_dependency("mem.binding-adequate", "telemetry.durable");

  aft::core::GestaltBus bus;
  std::vector<std::string> requalification_worklist;
  bus.attach(aft::core::GestaltAgent(
      "model", aft::core::BindingTime::kDesign,
      [&](const aft::core::GestaltEvent& e) {
        for (const auto& suspect : web.suspects_of(e.topic)) {
          requalification_worklist.push_back(suspect);
        }
      }));

  // A run-time clash on the ECC premise...
  bus.publish(aft::core::GestaltEvent{aft::core::GestaltKind::kAssumptionFailure,
                                      aft::core::BindingTime::kRun,
                                      "platform.ecc", "observed: swallowed"});
  // ...produces the transitive re-qualification work-list at the model layer.
  EXPECT_EQ(requalification_worklist,
            (std::vector<std::string>{"mem.binding-adequate",
                                      "telemetry.durable"}));
}

}  // namespace
