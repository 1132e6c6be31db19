// Ablation: run-time assumption revision (AdaptiveMemoryManager) vs the
// two static alternatives, on a platform whose knowledge-base judgment (f1)
// is wrong about the environment (actually f3-grade, with latch-ups).
//
//   static-M1     : trust the KB forever (the paper's Hidden-Intelligence
//                   endpoint: the wrong assumption stays hardwired);
//   static-M4     : distrust everything forever (max cost, no escalation);
//   adaptive      : bind cheap, observe, escalate on contradiction
//                   (the Sect. 5 cross-layer feedback loop).
//
// Reported: data-integrity violations over the campaign, when the adaptive
// manager escalated, and the storage cost integral (word-ticks of physical
// storage) — the quantity the adaptive scheme trades against risk.
#include <iostream>

#include "hw/fault_injector.hpp"
#include "hw/machine.hpp"
#include "mem/adaptive.hpp"
#include "mem/method_ecc.hpp"
#include "mem/method_tmr.hpp"
#include "obs/cli.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"

namespace {

constexpr std::size_t kWords = 96;
constexpr int kSteps = 40000;

aft::hw::Machine platform() {
  aft::hw::Machine m("kb-says-f1");
  for (int i = 0; i < 3; ++i) {
    // Prefix a named index, not a temporary: GCC 12 -Wrestrict misfires on
    // the inlined `"S" + std::string&&` insert at -O3.
    const std::string index = std::to_string(i);
    m.add_bank(aft::hw::SpdRecord{.vendor = "CE00000000000000",
                                  .model = "DDR-533-1G",
                                  .serial = "S" + index,
                                  .lot = "L-opt",
                                  .size_mib = 1024,
                                  .width_bits = 64,
                                  .clock_mhz = 533,
                                  .technology = aft::hw::MemoryTechnology::kDdrSdram,
                                  .slot = "B" + index},
               128);
  }
  return m;
}

aft::hw::FaultProfile campaign_profile() {
  aft::hw::FaultProfile p;
  p.seu_rate = 2e-3;
  p.sel_rate = 2e-4;  // the f3 truth the KB missed
  return p;
}

struct Run {
  std::uint64_t integrity_violations = 0;
  double storage_cost_integral = 0;  // storage_factor summed per step
  std::string final_method;
  int escalated_at = -1;
};

template <typename StepHook>
Run drive(aft::hw::Machine& m, aft::mem::IMemoryAccessMethod*& method,
          double initial_storage_factor, StepHook hook) {
  Run run;
  double storage_factor = initial_storage_factor;
  std::vector<aft::hw::FaultInjector> injectors;
  for (std::size_t i = 0; i < 3; ++i) {
    injectors.emplace_back(*m.bank(i).chip, campaign_profile(), 500 + i);
  }
  for (std::size_t w = 0; w < kWords; ++w) method->write(w, w * 3);
  for (int step = 0; step < kSteps; ++step) {
    for (auto& inj : injectors) inj.tick();
    if (step % 4 == 0) method->scrub_step();
    const std::size_t addr = static_cast<std::size_t>(step) % kWords;
    const auto r = method->read(addr);
    if (!r.ok() || r.value != addr * 3) {
      ++run.integrity_violations;
      method->write(addr, addr * 3);
    }
    storage_factor = hook(step, storage_factor, run);
    run.storage_cost_integral += storage_factor;
  }
  run.final_method = std::string(method->name());
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  aft::obs::ObsCli obs(argc, argv);
  AFT_SPAN("bench", "abl_adaptive_memory");
  std::cout << "=== Ablation: adaptive vs static memory binding (" << kSteps
            << " steps, KB judgment f1, true environment f3) ===\n\n";

  aft::util::TextTable table;
  table.header({"binding", "integrity violations", "escalated at step",
                "final method", "storage cost (word-ticks, x1000)"});

  {
    aft::hw::Machine m = platform();
    aft::mem::EccScrubAccess m1(*m.bank(0).chip);
    aft::mem::IMemoryAccessMethod* method = &m1;
    const Run run = drive(m, method, 1.125, [&](int, double sf, Run&) {
      // Static: a latched device must still be reset eventually (ops crew),
      // else the run degenerates to 100% loss; model a slow manual reset.
      static int since_reset = 0;
      if (++since_reset >= 500) {
        m.reset_unavailable_banks();
        since_reset = 0;
      }
      return sf;
    });
    table.row({"static M1 (trust the KB)", std::to_string(run.integrity_violations),
               "-", run.final_method,
               aft::util::fmt(run.storage_cost_integral / 1000.0, 1)});
  }
  {
    aft::hw::Machine m = platform();
    aft::mem::TmrEccAccess m4(*m.bank(0).chip, *m.bank(1).chip, *m.bank(2).chip);
    aft::mem::IMemoryAccessMethod* method = &m4;
    const Run run = drive(m, method, 3.375,
                          [](int, double sf, Run&) { return sf; });
    table.row({"static M4 (distrust everything)",
               std::to_string(run.integrity_violations), "-", run.final_method,
               aft::util::fmt(run.storage_cost_integral / 1000.0, 1)});
  }
  {
    aft::hw::Machine m = platform();
    aft::mem::AdaptiveMemoryManager manager(m, aft::mem::MethodSelector{});
    aft::mem::IMemoryAccessMethod* method = &manager.method();
    const Run run = drive(m, method, 1.125, [&](int step, double sf, Run& r) {
      if (step % 25 == 0 && manager.step()) {
        method = &manager.method();
        r.escalated_at = step;
        sf = manager.current_method() == "M3-sel-mirror" ? 2.25 : 3.375;
      }
      return sf;
    });
    table.row({"adaptive (observe & escalate)",
               std::to_string(run.integrity_violations),
               std::to_string(run.escalated_at), run.final_method,
               aft::util::fmt(run.storage_cost_integral / 1000.0, 1)});
  }

  std::cout << table.render() << "\n";
  std::cout
      << "expected shape: static M1 keeps corrupting for the whole campaign\n"
         "(every latch-up destroys the only copy); static M4 is clean but\n"
         "pays 3.375x storage from step 0; the adaptive binding pays the f1\n"
         "price until the first latch-up ANYWHERE on the platform\n"
         "contradicts the assumption — often on a bank it is not even\n"
         "using, i.e. before its own data is hit — then escalates once and\n"
         "is clean for the rest of the run at 2.25x.\n";
  return 0;
}
