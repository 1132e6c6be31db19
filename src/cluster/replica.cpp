#include "cluster/replica.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "vote/voter.hpp"

namespace aft::cluster {
namespace {

/// The report a shed invoke's Done receives: nothing ran, nothing voted.
const vote::RoundReport kShedReport{};

}  // namespace

const char* to_string(ShedPolicy policy) noexcept {
  switch (policy) {
    case ShedPolicy::kRejectNewest: return "reject-newest";
    case ShedPolicy::kRejectOldest: return "reject-oldest";
    case ShedPolicy::kProbabilistic: return "probabilistic";
  }
  return "?";
}

ReplicatedService::ReplicatedService(sim::Simulator& sim, ClusterParams params,
                                     Task task, std::uint64_t seed)
    : sim_(sim),
      params_(std::move(params)),
      task_(std::move(task)),
      organ_(params_.policy.min_replicas, nullptr, params_.policy,
             params_.shared_key),
      membership_(sim, params_.membership),
      admit_rng_(seed + 8 * params_.pool) {
  if (!task_) {
    throw std::invalid_argument("ReplicatedService: null task");
  }
  if (params_.pool < params_.policy.min_replicas) {
    throw std::invalid_argument(
        "ReplicatedService: pool smaller than policy.min_replicas");
  }
  if (params_.pool > kMaxPool) {
    throw std::invalid_argument("ReplicatedService: pool larger than kMaxPool");
  }
  nodes_.reserve(params_.pool);
  for (std::size_t i = 0; i < params_.pool; ++i) {
    // 8 seeds of headroom per node: links draw 2, endpoints draw 2.
    auto node = std::make_unique<Node>(sim_, "replica-" + std::to_string(i),
                                       params_.wire, seed + 8 * i);
    if (params_.breaker.has_value()) {
      node->breaker.emplace(sim_, node->name + ".breaker", *params_.breaker);
    }
    node->replica.attach(node->to, node->from);
    node->coord.attach(node->from, node->to);
    node->replica.serve(
        "compute", [this, i](const std::string& request, std::string& response) {
          const std::optional<vote::Ballot> input = vote::parse_ballot(request);
          if (!input) return false;
          response = std::to_string(task_(*input, i));
          return true;
        });
    node->coord.on_heartbeat([this, i](const std::string&) { on_beat(i); });
    nodes_.push_back(std::move(node));
  }
  // Post-mortem evidence join: a member-down record's cause is the last
  // heartbeat frame the member's return wire ate, so `aft_trace why` walks
  // a raise back to the physical loss.
  membership_.set_down_evidence([this](std::size_t i) {
    return nodes_[i]->from.last_drop_event(net::FrameKind::kHeartbeat);
  });
  membership_.on_change([this](std::size_t i, bool up) { on_member_change(i, up); });
  // A missed window while down restarts the heal count: reinstatement
  // demands `reinstate_after_beats` *consecutive* beats, so a flapping
  // member (N-1 beats, a miss, more beats) starts over from zero instead
  // of carrying stale credit across the gap.
  membership_.on_miss([this](std::size_t i, std::uint64_t) {
    Node& node = *nodes_[i];
    if (node.resumed_beats > 0 && !membership_.up(i)) {
      AFT_TRACE("cluster.replica", "heal-reset",
                {{"replica", node.name}, {"beats", node.resumed_beats}});
      node.resumed_beats = 0;
    }
  });
  // This front-end's treatment of a verdict: a unit judged permanently or
  // intermittently faulty is a suspect, out of rounds until repair().
  organ_.on_verdict([this](std::size_t i, detect::FaultJudgment verdict) {
    Node& node = *nodes_[i];
    const bool now_suspect =
        verdict == detect::FaultJudgment::kPermanentOrIntermittent;
    if (now_suspect == node.suspect) return;
    node.suspect = now_suspect;
    if (now_suspect) {
      ++counters_.suspects;
      AFT_METRIC_ADD("cluster.suspects", 1);
      AFT_TRACE("cluster.replica", "suspect", {{"replica", node.name}});
    } else {
      ++counters_.cleared;
      AFT_METRIC_ADD("cluster.cleared", 1);
      AFT_TRACE("cluster.replica", "clear", {{"replica", node.name}});
    }
  });
}

void ReplicatedService::start() {
  if (started_) return;
  started_ = true;
  AFT_TRACE("cluster.coordinator", "start",
            {{"pool", nodes_.size()}, {"arity", organ_.farm().replicas()}});
  // Tracked in pool order, so a member id is its pool index.
  for (const auto& node : nodes_) membership_.track(node->name);
  for (const auto& node : nodes_) {
    node->replica.start_heartbeats(params_.heartbeat_period);
  }
}

bool ReplicatedService::eligible(std::size_t i) const {
  return !nodes_.at(i)->suspect && membership_.up(i);
}

std::size_t ReplicatedService::live_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) n += eligible(i) ? 1u : 0u;
  return n;
}

void ReplicatedService::invoke(vote::Ballot input, Done done) {
  if (!started_) {
    throw std::logic_error("ReplicatedService: invoke() before start()");
  }
  if (!round_in_flight_) {
    ++counters_.admitted;
    AFT_METRIC_ADD("cluster.admission.admitted", 1);
    begin_round(input, std::move(done));
    return;
  }
  const std::size_t limit = params_.admission.queue_limit;
  if (limit > 0) {
    switch (params_.admission.policy) {
      case ShedPolicy::kRejectNewest:
        if (queue_.size() >= limit) {
          shed(std::move(done));
          return;
        }
        break;
      case ShedPolicy::kRejectOldest:
        // Admit the fresh work; the head has waited longest and is the
        // most likely to have outlived its caller's patience.
        if (queue_.size() >= limit) {
          Pending oldest = std::move(queue_.front());
          queue_.pop_front();
          ++counters_.evicted;
          AFT_METRIC_ADD("cluster.admission.evicted", 1);
          shed(std::move(oldest.done), oldest.cause);
        }
        break;
      case ShedPolicy::kProbabilistic:
        // Early pushback: shed with P = depth/limit, so pressure rises
        // smoothly instead of cliff-dropping at the bound (and P = 1 at
        // the bound keeps the queue hard-limited).
        if (admit_rng_.bernoulli(static_cast<double>(queue_.size()) /
                                 static_cast<double>(limit))) {
          shed(std::move(done));
          return;
        }
        break;
    }
  }
  ++counters_.admitted;
  AFT_METRIC_ADD("cluster.admission.admitted", 1);
  enqueue(input, std::move(done));
}

void ReplicatedService::enqueue(vote::Ballot input, Done done) {
  AFT_METRIC_ADD("cluster.rounds_queued", 1);
  Pending pending;
  pending.input = input;
  pending.done = std::move(done);
  pending.cause = obs::current_cause();
  queue_.push_back(std::move(pending));
  if (queue_.size() > counters_.queue_peak) {
    counters_.queue_peak = queue_.size();
  }
  if (obs::MetricsRegistry* const reg = obs::metrics()) {
    reg->set_gauge("cluster.admission.queue_depth",
                   static_cast<double>(queue_.size()));
  }
}

void ReplicatedService::shed(Done done, obs::EventId cause) {
  ++counters_.shed;
  AFT_METRIC_ADD("cluster.admission.shed", 1);
  // The shed record chains to the invoke it refuses: the ambient cause for
  // a synchronous shed (the caller's context), or the evicted invoke's
  // snapshotted cause for reject-oldest.
  const obs::CauseScope scope(cause != obs::kNoEvent ? cause
                                                     : obs::current_cause());
  AFT_TRACE("cluster.admission", "shed",
            {{"queue", queue_.size()},
             {"limit", params_.admission.queue_limit},
             {"policy", to_string(params_.admission.policy)}});
  if (done) done(InvokeOutcome::kShed, kShedReport);
}

void ReplicatedService::begin_round(vote::Ballot input, Done done) {
  round_in_flight_ = true;
  Round& r = round_;
  r.id = ++round_seq_;
  r.input = input;
  r.done = std::move(done);
  r.n = organ_.farm().replicas();
  r.ballots.clear();
  for (std::size_t slot = 0; slot < r.n; ++slot) {
    r.ballots.push_back(no_reply(slot));
  }
  // Assignment: the first n live pool members, in pool order.  Evicted and
  // suspect replicas are skipped, so a degraded prefix is transparently
  // substituted by spares ("substituted" rounds) and a cluster with fewer
  // live members than the arity votes short (sentinels fill the gap).
  r.assignment.clear();
  for (std::size_t i = 0; i < nodes_.size() && r.assignment.size() < r.n; ++i) {
    if (eligible(i)) r.assignment.push_back(i);
  }
  if (r.assignment.size() < r.n) ++counters_.short_rounds;
  bool substituted = false;
  for (std::size_t slot = 0; slot < r.assignment.size(); ++slot) {
    if (r.assignment[slot] != slot) substituted = true;
  }
  if (substituted) ++counters_.substituted_rounds;
  r.pending = r.assignment.size();
  r.dispatching = true;
  AFT_METRIC_ADD("cluster.rounds", 1);

  // The round record is the chain origin of the whole fan-out: every
  // per-replica net.rpc/call (and its wire hops) walks back to it.
  {
    const obs::CauseScope cause("cluster.coordinator", "round",
                                {{"round", r.id},
                                 {"arity", r.n},
                                 {"live", r.assignment.size()}});
    const std::string payload = std::to_string(input);
    for (std::size_t slot = 0; slot < r.assignment.size(); ++slot) {
      const std::size_t node = r.assignment[slot];
      net::CallOptions options = params_.call;
      options.breaker = nodes_[node]->breaker.has_value()
                            ? &*nodes_[node]->breaker
                            : nullptr;
      // Pack (round, slot, node) into one word so the capture fits
      // std::function's 16-byte inline buffer: the fan-out is the traffic
      // plane's per-request hot path and must not allocate per call.
      // 40/12/12 bits: the constructor bounds the pool (so node and slot)
      // by kMaxPool = 2^12.
      const std::uint64_t tag = (r.id << 24) |
                                (static_cast<std::uint64_t>(slot) << 12) |
                                static_cast<std::uint64_t>(node);
      nodes_[node]->coord.call(
          "compute", payload, options,
          [this, tag](const net::RpcResult& result) {
            on_reply(tag >> 24, (tag >> 12) & 0xFFF, tag & 0xFFF, result);
          });
    }
  }  // the round record stops being the cause before finalize_round runs
  round_.dispatching = false;
  if (round_.pending == 0) finalize_round();
}

void ReplicatedService::on_reply(std::uint64_t round, std::size_t slot,
                                 [[maybe_unused]] std::size_t node,
                                 const net::RpcResult& result) {
  // A breaker rejection completes synchronously inside the fan-out loop; a
  // round that died there must not resurrect on the stale replies of calls
  // the loop kept placing.
  if (!round_in_flight_ || round != round_.id) return;
  if (result.status == net::RpcStatus::kOk) {
    // An unparsable reply keeps the slot's no-reply sentinel.
    if (const std::optional<vote::Ballot> ballot = vote::parse_ballot(result.payload)) {
      round_.ballots[slot] = *ballot;
    } else {
      ++counters_.rpc_failures;
    }
  } else {
    ++counters_.rpc_failures;
    AFT_TRACE("cluster.coordinator", "no-ballot",
              {{"round", round},
               {"replica", nodes_[node]->name},
               {"status", net::to_string(result.status)}});
  }
  if (--round_.pending == 0 && !round_.dispatching) finalize_round();
}

void ReplicatedService::finalize_round() {
  Round& r = round_;
  ++counters_.rounds;
  // The vote covers the farm's arity now (an eviction may have raised it
  // mid-round); slots this round never collected vote their sentinel.
  const vote::RoundReport report = organ_.vote(r.ballots);
  if (!report.success) {
    ++counters_.no_quorum;
    AFT_METRIC_ADD("cluster.no_quorum", 1);
  }
  if (report.dissent > 0) ++counters_.dissent_rounds;
  AFT_TRACE("cluster.coordinator", "round-done",
            {{"round", r.id},
             {"arity", report.n},
             {"success", report.success},
             {"dissent", report.dissent},
             {"distance", report.distance}});
  // Judge the assigned replicas (unit = pool index).  A sentinel counts as
  // dissent: not answering a round it was assigned IS the replica's error.
  organ_.settle(report, r.ballots, r.assignment);
  round_in_flight_ = false;
  Done done = std::move(r.done);
  r.done = nullptr;
  if (done) done(InvokeOutcome::kCompleted, report);
  // done() may have begun a new round synchronously; only drain the queue
  // when the service is actually idle.
  if (!round_in_flight_ && !queue_.empty()) {
    Pending next = std::move(queue_.front());
    queue_.pop_front();
    if (obs::MetricsRegistry* const reg = obs::metrics()) {
      reg->set_gauge("cluster.admission.queue_depth",
                     static_cast<double>(queue_.size()));
    }
    // Reinstate the queued caller's causal context (snapshotted at
    // enqueue): without this the dequeued round chained to whatever
    // happened to complete the previous round — `aft_trace why` blamed an
    // unrelated caller for the queued work.
    const obs::CauseScope cause(next.cause);
    begin_round(next.input, std::move(next.done));
  }
}

void ReplicatedService::on_beat(std::size_t i) {
  membership_.beat(i);
  if (membership_.up(i)) return;
  Node& node = *nodes_[i];
  // Beats arriving from a down member are themselves the heal evidence:
  // after enough of them, administratively reinstate it (the Sect. 3.2
  // unit-replacement treatment, triggered by observation instead of an
  // operator).
  if (++node.resumed_beats >= params_.reinstate_after_beats) {
    AFT_TRACE("cluster.replica", "auto-reinstate",
              {{"replica", node.name}, {"beats", node.resumed_beats}});
    membership_.reinstate(i);  // -> member-up -> on_member_change
  }
}

void ReplicatedService::on_member_change(std::size_t i, bool up) {
  Node& node = *nodes_[i];
  node.resumed_beats = 0;
  if (up) {
    ++counters_.reinstatements;
    AFT_METRIC_ADD("cluster.reinstatements", 1);
    AFT_TRACE("cluster.replica", "rejoin", {{"replica", node.name}});
    return;
  }
  ++counters_.evictions;
  AFT_METRIC_ADD("cluster.evictions", 1);
  // The evict record inherits the member-down verdict as its cause
  // (installed by Membership during handler fan-out) and becomes, in turn,
  // the cause of the disturbance/raise it pushes to the switchboard.
  const obs::CauseScope cause("cluster.replica", "evict",
                              {{"replica", node.name}});
  organ_.board().notify_disturbance("member-down");
}

void ReplicatedService::repair(std::size_t i) {
  [[maybe_unused]] const Node& node = *nodes_.at(i);  // bounds-checks `i`
  AFT_TRACE("cluster.replica", "repair", {{"replica", node.name}});
  // Unit replacement: fresh ballot evidence (the reset's verdict change
  // clears the suspect flag via the verdict hook) and, if the member was
  // evicted, a membership reinstate.
  organ_.reset(i);
  if (started_ && !membership_.up(i)) membership_.reinstate(i);
}

}  // namespace aft::cluster
