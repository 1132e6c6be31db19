// Mission simulator: every treatment strategy of the paper, running
// together on one platform — the "assumption failure-tolerant software
// system" of the title as a whole.
//
// A small LEO-satellite on-board software stack:
//
//   launch    : manifest re-qualification + behavioural platform self-test
//               (anti-S_HI: the assumptions travelled with the artifact);
//   memory    : Sect. 3.1 — selector binds the method the SPD/KB judgment
//               demands; an AdaptiveMemoryManager watches for contradiction;
//   compute   : Sect. 3.2 — the attitude task runs under a watchdog; the
//               alpha-count oracle switches D1 (redoing) to D2
//               (reconfiguration) when its unit fails permanently;
//   telemetry : Sect. 3.3 — replicated sensor fusion with dtof-driven
//               autonomic redundancy;
//   gestalt   : Sect. 5 — run-time deductions propagate to other layers.
//
// Everything runs on the deterministic simulation kernel; the mission log
// prints the assumption-failure treatments as they happen.
#include <iostream>
#include <memory>

#include "autonomic/service.hpp"
#include "core/gestalt.hpp"
#include "core/web.hpp"
#include "detect/watchdog.hpp"
#include "env/platform.hpp"
#include "ftpat/pattern_switcher.hpp"
#include "ftpat/reconfiguration.hpp"
#include "ftpat/redoing.hpp"
#include "hw/fault_injector.hpp"
#include "hw/machine.hpp"
#include "manifest/deployment.hpp"
#include "manifest/manifest.hpp"
#include "util/table.hpp"
#include "mem/adaptive.hpp"
#include "util/rng.hpp"

namespace {

aft::manifest::Manifest flight_manifest() {
  aft::manifest::Manifest m;
  m.name = "obc-flight-software";
  m.version = "3.0";
  m.assumptions.push_back(aft::manifest::AssumptionRecord{
      .id = "platform.watchdog",
      .statement = "the platform provides a watchdog timer",
      .subject = aft::core::Subject::kExecutionEnvironment,
      .origin = "OBC safety case §4.2",
      .rationale = "attitude-task hang detection depends on it",
      .stated_at = aft::core::BindingTime::kDesign,
      .expectation = aft::contract::clause_eq("platform.watchdog-timer", true)});
  m.assumptions.push_back(aft::manifest::AssumptionRecord{
      .id = "platform.ecc",
      .statement = "memory errors are reported, not swallowed",
      .subject = aft::core::Subject::kHardware,
      .origin = "OBC safety case §4.3",
      .rationale = "the Sect. 3.1 selector needs observable failure semantics",
      .stated_at = aft::core::BindingTime::kDesign,
      .expectation = aft::contract::clause_eq("platform.ecc-reporting", true)});
  return m;
}

}  // namespace

int main() {
  std::cout << "=== mission_simulator: the full aft stack ===\n\n";

  // ------------------------------------------------------------- launch ----
  // The deployment gate runs every introspection source — SPD/KB memory
  // judgment plus behavioural platform self-tests — and re-qualifies the
  // flight software's manifest against the combined truth.
  std::cout << "[launch] deployment gate (introspection + self-test + manifest)\n";
  aft::env::PlatformFeatures honest{.hardware_interlocks = true,
                                    .exception_trapping = true,
                                    .watchdog_timer = true,
                                    .ecc_reporting = true};
  aft::env::PlatformUnderTest obc_platform("leo-obc-1", honest, honest);
  aft::hw::Machine gate_machine = aft::hw::machines::satellite_obc(64);
  const auto gate = aft::manifest::qualify_deployment(
      flight_manifest(), gate_machine, aft::mem::MethodSelector{}, &obc_platform);
  std::cout << "         memory behaviour: " << gate.memory_behaviour
            << ", platform safe: " << (gate.platform_safe ? "yes" : "NO")
            << ", clashes: " << gate.clashes.size() << "\n"
            << "         verdict: "
            << (gate.approved() ? "APPROVED for launch" : "REFUSED") << "\n\n";
  aft::core::Context ctx;
  ctx.merge(gate.context);  // the mission inherits everything the gate learned

  // The assumption web behind this mission (printed as the audit artifact).
  aft::core::AssumptionWeb web;
  web.add_dependency("platform.ecc", "mem.binding-adequate");
  web.add_dependency("mem.binding-adequate", "telemetry.durable");
  web.add_dependency("platform.watchdog", "attitude.hang-detected");
  web.add_dependency("attitude.hang-detected", "attitude.pattern-switch");

  // ------------------------------------------------------------- memory ----
  std::cout << "[memory] Sect. 3.1 binding on the introspected platform\n";
  aft::hw::Machine machine = aft::hw::machines::satellite_obc(256);
  aft::mem::AdaptiveMemoryManager memory(machine, aft::mem::MethodSelector{});
  std::cout << "         bound " << memory.current_method() << " for "
            << memory.initial_report().required_label << "\n\n";

  // ------------------------------------------------------------ compute ----
  aft::sim::Simulator sim;
  auto plus_one = [](std::int64_t v) { return v + 1; };
  aft::arch::Middleware mw;
  auto attitude_unit = std::make_shared<aft::arch::ScriptedComponent>("au", plus_one);
  auto spare_unit = std::make_shared<aft::arch::ScriptedComponent>("au-spare", plus_one);
  mw.register_component(std::make_shared<aft::arch::ScriptedComponent>("nav", plus_one));
  mw.register_component(
      std::make_shared<aft::ftpat::RedoingComponent>("attitude", attitude_unit, 3));
  mw.register_component(std::make_shared<aft::ftpat::ReconfigurationComponent>(
      "attitude-2v",
      std::vector<std::shared_ptr<aft::arch::Component>>{attitude_unit, spare_unit}));
  aft::ftpat::PatternSwitcher switcher(
      mw,
      aft::arch::DagSnapshot{"D1", {"nav", "attitude"}, {{"nav", "attitude"}}},
      aft::arch::DagSnapshot{"D2", {"nav", "attitude-2v"}, {{"nav", "attitude-2v"}}},
      aft::ftpat::PatternSwitcher::Config{.monitored_channel = "attitude"});

  aft::detect::Watchdog dog(sim, 10, [&](aft::sim::SimTime) { switcher.run(0); });
  aft::detect::WatchedTask attitude_task(sim, dog, 5);
  dog.start();
  attitude_task.start();

  // ----------------------------------------------------------- telemetry ----
  aft::util::Xoshiro256 env_rng(2026);
  double radiation = 0.0;
  // A named Options, not a designated-initializer temporary: GCC 12 reports
  // -Wmaybe-uninitialized on the temporary's defaulted string members.
  aft::autonomic::AutonomicReplicationService::Options options;
  options.policy.lower_after = 300;
  aft::autonomic::AutonomicReplicationService telemetry(
      [&](aft::vote::Ballot in, std::size_t replica) -> aft::vote::Ballot {
        if (radiation > 0 && env_rng.bernoulli(radiation)) {
          return in + 50 + static_cast<aft::vote::Ballot>(replica);
        }
        return in * 2;
      },
      options, &ctx);

  // ------------------------------------------------------------ gestalt ----
  aft::core::GestaltBus bus;
  bus.attach(aft::core::GestaltAgent(
      "model", aft::core::BindingTime::kDesign, [&](const aft::core::GestaltEvent& e) {
        std::cout << "         [gestalt->model] " << to_string(e.kind) << ": "
                  << e.topic << " = " << e.payload << "\n";
        for (const auto& suspect : web.suspects_of(e.topic)) {
          std::cout << "           suspect for re-qualification: " << suspect
                    << "\n";
        }
      }));

  // -------------------------------------------------------------- fly! ----
  std::cout << "[fly] 3 mission phases on the simulation kernel\n";

  // Phase 1: nominal orbit segment.
  for (int t = 0; t < 300; ++t) {
    sim.run_until(sim.now() + 1);
    telemetry.call(t);
  }
  std::cout << "  phase 1 (nominal):   telemetry replicas=" << telemetry.replicas()
            << " attitude snapshot=" << switcher.active_snapshot()
            << " memory=" << memory.current_method() << "\n";

  // Phase 2: South Atlantic Anomaly — radiation corrupts telemetry replicas
  // and latches a memory bank.
  radiation = 0.12;
  machine.bank(0).chip->inject_latch_up();
  (void)memory.method().read(0);
  if (memory.step()) {
    std::cout << "  phase 2 (SAA):       memory assumption clashed -> escalated to "
              << memory.current_method() << "\n";
    bus.publish(aft::core::GestaltEvent{aft::core::GestaltKind::kAssumptionFailure,
                                        aft::core::BindingTime::kRun,
                                        "mem.binding-adequate",
                                        memory.history()[0].observed_label});
  } else {
    std::cout << "  phase 2 (SAA):       memory binding already adequate ("
              << memory.current_method() << ")\n";
  }
  for (int t = 0; t < 600; ++t) {
    sim.run_until(sim.now() + 1);
    telemetry.call(t);
  }
  std::cout << "                       telemetry replicas=" << telemetry.replicas()
            << " (disturbance=" << aft::util::fmt(telemetry.disturbance_level(), 3)
            << "), voting failures=" << telemetry.failures() << "\n";

  // Phase 3: the attitude unit fails permanently; watchdog -> oracle -> D2.
  radiation = 0.0;
  attitude_task.inject_permanent_fault();
  attitude_unit->fail_always();
  sim.run_until(sim.now() + 120);
  std::cout << "  phase 3 (unit loss): attitude snapshot="
            << switcher.active_snapshot() << " (oracle judged '"
            << to_string(switcher.judgment()) << "')\n";
  if (switcher.switched()) {
    bus.publish(aft::core::GestaltEvent{aft::core::GestaltKind::kAssumptionFailure,
                                        aft::core::BindingTime::kRun,
                                        "attitude.hang-detected", "permanent"});
  }
  for (int t = 0; t < 1500; ++t) {
    sim.run_until(sim.now() + 1);
    telemetry.call(t);
  }

  // ----------------------------------------------------------- debrief ----
  std::cout << "\n[debrief]\n"
            << "  telemetry: " << telemetry.calls() << " calls, "
            << telemetry.failures() << " voting failures, back to "
            << telemetry.replicas() << " replicas\n"
            << "  memory: " << memory.history().size() << " escalation(s)";
  for (const auto& esc : memory.history()) {
    std::cout << " [" << esc.from << " -> " << esc.to << " on "
              << esc.observed_label << "]";
  }
  std::cout << "\n  attitude: pattern " << switcher.active_snapshot()
            << ", watchdog fired " << dog.firings() << " of " << dog.windows()
            << " windows\n"
            << "  dimensioning assumption now: r = "
            << telemetry.dimensioning_assumption().assumed() << "\n";
  return 0;
}
