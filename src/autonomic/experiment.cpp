#include "autonomic/experiment.hpp"

#include <algorithm>
#include <optional>

#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/series.hpp"

namespace aft::autonomic {

ExperimentResult run_adaptation_experiment(
    const ExperimentConfig& config, const std::vector<DisturbancePhase>& script) {
  util::Xoshiro256 rng(config.seed);

  // Hoisted once: the experiment loop runs tens of millions of iterations,
  // so even the TLS load inside the AFT_* macros is too much per step.
  obs::TraceSink* const sink = obs::trace();
  // The loop stamps its records with its step but has never advanced the
  // metrics clock, so vote.farm.round_gap, read as a round closes, is 0
  // here.  With one obs clock the loop keeps that apart explicitly: the
  // clock holds the step while records are taken and, when a registry is
  // installed, its entry value while a round closes.
  const bool metered = obs::metrics() != nullptr;
  const std::uint64_t metrics_t = obs::obs_time();

  // The replicated method: the correct output is input + 1; a disturbed
  // replica returns a replica-specific wrong value (distinct wrong values,
  // the worst case for exact-agreement voting).  Each corruption is the
  // origin of a causal chain: its record becomes the sink's current cause,
  // so the dissent it provokes and the reconfiguration that follows all
  // link back to it (`aft_trace why` walks the chain).
  double corruption_prob = 0.0;
  std::uint64_t faults_injected = 0;
  std::uint64_t step = 0;
  vote::VotingFarm farm(
      config.initial_replicas,
      [&](vote::Ballot input, std::size_t replica) -> vote::Ballot {
        if (corruption_prob > 0.0 && rng.bernoulli(corruption_prob)) {
          ++faults_injected;
          obs::set_obs_time(step);
          if (sink != nullptr) {
            const obs::EventId id =
                sink->emit("hw.inject", "corrupt",
                           {{"step", step}, {"replica", replica}});
            if (id != obs::kNoEvent) sink->set_cause(id);
          } else {
            obs::flight_note("hw.inject", "corrupt");
          }
          if (metered) obs::set_obs_time(metrics_t);
          return input + 2 + static_cast<vote::Ballot>(replica);
        }
        return input + 1;
      });

  ReflectiveSwitchboard board(farm, config.policy, /*shared_key=*/config.seed);

  ExperimentResult result;
  for (const DisturbancePhase& phase : script) {
    corruption_prob = phase.corruption_prob;
    std::optional<obs::SpanGuard> phase_span;
    if (sink != nullptr) {
      obs::set_obs_time(step);
      phase_span.emplace(obs::Name("autonomic.experiment"),
                         phase.corruption_prob > 0.0 ? "burst" : "calm");
      sink->emit("autonomic.experiment", "phase",
                 {{"duration", phase.duration},
                  {"corruption_prob", phase.corruption_prob}});
    }
    for (std::uint64_t i = 0; i < phase.duration; ++i, ++step) {
      const std::uint64_t faults_before = faults_injected;
      if (sink != nullptr) {
        obs::set_obs_time(metered ? metrics_t : step);
        // Every round starts a fresh causal turn; without the reset a
        // quiet round would inherit the previous round's chain.
        sink->set_cause(obs::kNoEvent);
      }
      const vote::RoundReport report =
          farm.invoke(static_cast<vote::Ballot>(step));
      if (sink != nullptr) obs::set_obs_time(step);
      if (sink != nullptr && report.dissent > 0) {
        // Dissent is the detector-side symptom the injected corruption
        // produced; the event inherits the injection as its cause and in
        // turn becomes the cause of the switchboard's reaction.
        const obs::EventId id =
            sink->emit("vote.farm", "dissent",
                       {{"step", step},
                        {"dissenters", report.dissent},
                        {"distance", report.distance},
                        {"replicas", report.n}});
        if (id != obs::kNoEvent) sink->set_cause(id);
      }
      if (!report.success) {
        ++result.voting_failures;
        if (sink != nullptr) {
          sink->emit("autonomic.experiment", "voting-failure",
                     {{"step", step}, {"replicas", farm.replicas()}});
        }
      }
      board.observe(report);
      if (config.record_series && step % config.series_sample_every == 0) {
        result.series.push_back(SeriesPoint{
            .step = step,
            .replicas = farm.replicas(),
            .distance = report.distance,
            .fault_injected = faults_injected != faults_before,
        });
      }
    }
  }

  result.steps = step;
  result.faults_injected = faults_injected;
  result.raises = board.raises();
  result.lowers = board.lowers();
  result.redundancy = board.redundancy_histogram();
  if (obs::MetricsRegistry* reg = obs::metrics(); reg != nullptr) {
    reg->add("experiment.steps", result.steps);
    reg->add("experiment.faults_injected", result.faults_injected);
    reg->add("experiment.voting_failures", result.voting_failures);
    reg->set_gauge("experiment.final_replicas",
                   static_cast<double>(farm.replicas()));
  }
  return result;
}

std::string ExperimentResult::series_csv() const {
  util::SeriesLogger log({"step", "replicas", "dtof", "fault_injected"});
  for (const SeriesPoint& p : series) {
    log.append({static_cast<double>(p.step), static_cast<double>(p.replicas),
                static_cast<double>(p.distance), p.fault_injected ? 1.0 : 0.0});
  }
  return log.render_csv();
}

std::vector<DisturbancePhase> fig6_script() {
  return {
      DisturbancePhase{.duration = 3000, .corruption_prob = 0.0},
      DisturbancePhase{.duration = 1500, .corruption_prob = 0.25},
      DisturbancePhase{.duration = 6000, .corruption_prob = 0.0},
  };
}

std::vector<DisturbancePhase> fig7_script(std::uint64_t total_steps) {
  // Rare disturbance episodes over a long calm background — the regime in
  // which the paper's controller parks at r = 3 for >99.9% of the time yet
  // never suffers a voting failure.  Each episode ramps up and back down:
  // a physical disturbance (solar event, thermal drift) grows over time, so
  // the dtof early-warning drops (dissent, not failure) *before* the
  // intensity becomes dangerous for the current arity, and the controller
  // stays ahead of it — "the system should be aware of changes ... the
  // replication and voting scheme should work with a number of replicas
  // that closely follows the evolution of the disturbance".
  const std::vector<DisturbancePhase> episode = {
      {400, 0.001}, {200, 0.004}, {150, 0.015}, {200, 0.05},
      {150, 0.015}, {200, 0.004}, {400, 0.001}};
  std::uint64_t episode_len = 0;
  for (const auto& p : episode) episode_len += p.duration;

  // Paper-like spacing: one episode per ~1.6M steps (40 over the 65M run),
  // with at least two so every run exercises the adaptation.
  const std::uint64_t episodes =
      std::max<std::uint64_t>(2, total_steps / 1600000);
  const std::uint64_t cycle = total_steps / episodes;

  std::vector<DisturbancePhase> script;
  if (cycle <= episode_len) {
    script.push_back(DisturbancePhase{total_steps, 0.0});
    return script;
  }
  std::uint64_t used = 0;
  for (std::uint64_t e = 0; e < episodes && used + cycle <= total_steps; ++e) {
    script.push_back(DisturbancePhase{cycle - episode_len, 0.0});
    for (const auto& p : episode) script.push_back(p);
    used += cycle;
  }
  if (used < total_steps) {
    script.push_back(DisturbancePhase{total_steps - used, 0.0});
  }
  return script;
}

}  // namespace aft::autonomic
