// organ_fig7: the in-process Sect. 3.3 restoring organ (VotingFarm +
// ReflectiveSwitchboard) over the Fig. 7 disturbance script.  Only vote and
// autonomic work here — no sim, net or obs — so a merge of the two organ
// stacks must not slow this path.
#include <memory>
#include <string>
#include <vector>

#include "autonomic/experiment.hpp"
#include "e2e.hpp"

namespace aft::e2e {
namespace {

constexpr std::uint64_t kSteps = 13'000'000;
constexpr std::uint64_t kSmokeSteps = 200'000;
/// fig7_redundancy_histogram's seed: zero voting failures at paper scale.
constexpr std::uint64_t kBaseSeed = 211;

struct OrganState final : State {
  bool smoke = false;
  autonomic::ExperimentConfig config;
  std::vector<autonomic::DisturbancePhase> script;
  autonomic::ExperimentResult result;
};

std::unique_ptr<State> setup(std::uint64_t seed, bool smoke) {
  auto s = std::make_unique<OrganState>();
  s->smoke = smoke;
  s->config.seed = derive_seed(kBaseSeed, seed);
  s->config.policy.lower_after = 1000;  // the paper's value
  s->config.record_series = false;
  s->script = autonomic::fig7_script(smoke ? kSmokeSteps : kSteps);
  return s;
}

void run(State& state, Spans*) {
  auto& s = static_cast<OrganState&>(state);
  s.result = autonomic::run_adaptation_experiment(s.config, s.script);
}

RepResult validate(State& state, std::uint64_t seed, Checks& checks) {
  const auto& s = static_cast<const OrganState&>(state);
  const autonomic::ExperimentResult& res = s.result;
  std::uint64_t scripted = 0;
  for (const autonomic::DisturbancePhase& p : s.script) scripted += p.duration;

  RepResult r;
  r.ops = res.steps;
  r.not_ok = res.voting_failures;
  Counts& c = r.counts;
  c["vote.rounds"] = res.steps;
  c["vote.failures"] = res.voting_failures;
  c["hw.faults_injected"] = res.faults_injected;
  c["autonomic.raises"] = res.raises;
  c["autonomic.lowers"] = res.lowers;
  c["autonomic.rounds_observed"] = res.redundancy.total();
  c["autonomic.rounds_at_min"] = res.redundancy.count(3);
  std::uint64_t ballots = 0;
  for (const auto& [degree, rounds] : res.redundancy.bins()) {
    ballots += static_cast<std::uint64_t>(degree) * rounds;
    c["autonomic.rounds_at_" + std::to_string(degree)] = rounds;
  }
  c["vote.ballots"] = ballots;

  checks.expect(res.steps == scripted, "rounds == scripted steps");
  checks.expect(res.redundancy.total() == res.steps,
                "occupancy histogram covers every round");
  checks.expect(res.lowers <= res.raises, "lowers <= raises (floor at r=3)");
  // The paper-shape claims hold for the reference run; a --smoke script is
  // mostly disturbance episodes.
  if (seed == 0 && !s.smoke) {
    checks.expect(res.voting_failures == 0,
                  "0 voting failures at the default seed");
    // The reference run spends 0.99762 of its rounds at r=3; each burst
    // episode costs the same ~3.9k rounds above the floor at any length.
    checks.expect(res.fraction_at(3) >= 0.997,
                  "r3_fraction >= 0.997 at the default seed");
  }
  return r;
}

}  // namespace

const Workload& organ_workload() {
  static const Workload kOrgan{"organ_fig7", setup, run, validate};
  return kOrgan;
}

}  // namespace aft::e2e
