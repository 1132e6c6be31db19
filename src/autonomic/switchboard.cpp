#include "autonomic/switchboard.hpp"

#include <algorithm>
#include <stdexcept>

#include "arch/event_bus.hpp"
#include "obs/obs.hpp"
#include "vote/dtof.hpp"

namespace aft::autonomic {

ReflectiveSwitchboard::ReflectiveSwitchboard(vote::VotingFarm& farm, Policy policy,
                                             std::uint64_t shared_key)
    : farm_(farm), policy_(policy), signer_(shared_key), channel_(shared_key) {
  if (policy_.min_replicas < 1 || policy_.max_replicas < policy_.min_replicas) {
    throw std::invalid_argument("ReflectiveSwitchboard: bad replica bounds");
  }
  if (policy_.step == 0 || policy_.step % 2 != 0) {
    throw std::invalid_argument(
        "ReflectiveSwitchboard: step must be even to preserve odd arity");
  }
}

void ReflectiveSwitchboard::request_resize(std::size_t target, bool raised) {
  // The resize request travels as an authenticated message; only commands
  // that survive MAC + freshness checks reach the farm.
  const SignedResize msg = signer_.sign(target);
  if (const auto cmd = channel_.accept(msg)) {
    farm_.resize(cmd->target_replicas);
    if (raised) {
      ++raises_;
      AFT_METRIC_ADD("autonomic.raises", 1);
    } else {
      ++lowers_;
      AFT_METRIC_ADD("autonomic.lowers", 1);
    }
    AFT_TRACE("autonomic.switchboard",
              raised ? obs::Name("raise") : obs::Name("lower"),
              {{"replicas", farm_.replicas()}});
    if (hook_) hook_(farm_.replicas(), raised);
  }
}

void ReflectiveSwitchboard::bind_slo(arch::EventBus& bus) {
  bus.subscribe("obs.slo/breach",
                [this](const arch::Message&) { on_slo_breach(); });
  bus.subscribe("obs.slo/recover", [this](const arch::Message&) {
    // Latency is healthy again; the usual consecutive-high rule decides
    // when to shed the extra redundancy, starting a fresh streak.
    consecutive_high_ = 0;
    AFT_METRIC_ADD("autonomic.slo_recoveries_seen", 1);
  });
}

void ReflectiveSwitchboard::on_slo_breach() {
  // A burning SLO is an environmental disturbance symptom of the same rank
  // as a critically low dtof: grow immediately, and restart the high-streak
  // so redundancy is not shed while the latency plane is degraded.
  consecutive_high_ = 0;
  AFT_METRIC_ADD("autonomic.slo_breaches_seen", 1);
  const std::size_t n = farm_.replicas();
  if (n < policy_.max_replicas) {
    ++slo_raises_;
    AFT_METRIC_ADD("autonomic.slo_raises", 1);
    request_resize(std::min(n + policy_.step, policy_.max_replicas),
                   /*raised=*/true);
  }
}

void ReflectiveSwitchboard::notify_disturbance(const char* origin) {
  // Same treatment as an SLO breach: an externally observed disturbance
  // (membership eviction, failed probe) restarts the high-streak and grows
  // immediately when there is headroom.
  consecutive_high_ = 0;
  AFT_METRIC_ADD("autonomic.disturbances", 1);
  // The disturbance record becomes the cause of the resize it provokes, so
  // the raise chains back through it to whatever evicted/reported.
  const obs::CauseScope cause("autonomic.switchboard", "disturbance",
                              {{"origin", origin}});
  const std::size_t n = farm_.replicas();
  if (n < policy_.max_replicas) {
    ++disturbance_raises_;
    AFT_METRIC_ADD("autonomic.disturbance_raises", 1);
    request_resize(std::min(n + policy_.step, policy_.max_replicas),
                   /*raised=*/true);
  }
}

void ReflectiveSwitchboard::observe(const vote::RoundReport& report) {
  ++rounds_;
  occupancy_.add(static_cast<std::int64_t>(report.n));

  const std::int64_t max_distance = vote::dtof_max(report.n);
  const bool dissent_observed = report.distance < max_distance;
  if (report.distance <= policy_.critical_dtof ||
      (policy_.raise_on_any_dissent && dissent_observed)) {
    // Disturbance symptom: grow, immediately.
    consecutive_high_ = 0;
    if (report.n < policy_.max_replicas) {
      // Clamp to the ceiling: with step > 2 an unclamped raise from just
      // below max_replicas would overshoot the policy envelope (and the
      // Fig. 7 r ∈ {min..max} histogram domain).
      request_resize(std::min(report.n + policy_.step, policy_.max_replicas),
                     /*raised=*/true);
    }
    return;
  }
  if (report.distance >= max_distance - policy_.high_margin) {
    ++consecutive_high_;
    if (consecutive_high_ >= policy_.lower_after && report.n > policy_.min_replicas) {
      // Clamp to the floor without the unsigned underflow of n - step: when
      // step > n - min_replicas the lower bottoms out at min_replicas
      // instead of wrapping to a multi-exabyte replica count.
      const std::size_t shrink =
          std::min(policy_.step, report.n - policy_.min_replicas);
      request_resize(report.n - shrink, /*raised=*/false);
      consecutive_high_ = 0;
    }
    return;
  }
  // Mid-band dissent: neither comfortable nor critical; restart the
  // high-streak so we do not shed redundancy while disturbance lingers.
  consecutive_high_ = 0;
}

}  // namespace aft::autonomic
