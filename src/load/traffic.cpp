#include "load/traffic.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "vote/voter.hpp"

namespace aft::load {

const char* to_string(Arrival arrival) noexcept {
  switch (arrival) {
    case Arrival::kPoisson: return "poisson";
    case Arrival::kBursty: return "bursty";
    case Arrival::kDiurnal: return "diurnal";
  }
  return "?";
}

const char* ClientPopulation::phase_name(std::size_t i) noexcept {
  switch (i) {
    case 0: return "warm";
    case 1: return "overload";
    case 2: return "recovery";
  }
  return "?";
}

ClientPopulation::ClientPopulation(sim::Simulator& sim,
                                   cluster::ReplicatedService& service,
                                   TrafficParams params, std::uint64_t seed)
    : sim_(sim),
      service_(service),
      params_(params),
      rng_(seed),
      onoff_(params.bursty),
      // A clean private wire: the open-system plane studies *load*-induced
      // failure, so the front door itself never loses frames.
      to_front_(sim, "pop->front", net::LinkFaults{}, seed + 1),
      from_front_(sim, "front->pop", net::LinkFaults{}, seed + 2),
      client_(sim, "pop-client", seed + 3),
      front_(sim, "frontend", seed + 4),
      request_payload_("7") {
  if (params_.clients == 0) {
    throw std::invalid_argument("ClientPopulation: clients must be > 0");
  }
  client_.attach(from_front_, to_front_);
  front_.attach(to_front_, from_front_);
  // The front door: every request becomes one service invoke whose
  // admission verdict decides the response kind.  The Done captures only
  // {this, responder} — inline in the service's InlineFn, so the whole
  // request->invoke->respond path is allocation-free in steady state.
  front_.serve_async(
      "invoke",
      [this](const std::string& request, net::Endpoint::Responder responder) {
        const std::optional<vote::Ballot> input = vote::parse_ballot(request);
        if (!input) {
          responder.fail();
          return;
        }
        service_.invoke(
            *input, [responder](cluster::InvokeOutcome outcome,
                               const vote::RoundReport& report) {
              if (outcome == cluster::InvokeOutcome::kShed) {
                // Surfaced as a rejection, NOT a timeout: the client learns
                // immediately and distinctly that the service shed it.
                responder.reject();
              } else if (report.success) {
                responder.respond(std::to_string(report.value));
              } else {
                responder.fail();
              }
            });
      });
}

void ClientPopulation::start() {
  AFT_TRACE("load.population", "start",
            {{"clients", params_.clients},
             {"arrival", to_string(params_.arrival)}});
  schedule_next_arrival();
}

std::uint8_t ClientPopulation::phase_of(std::size_t k) const noexcept {
  // 20% warm-up, 60% overload, 20% recovery, by arrival order.
  const std::size_t warm_end = params_.clients / 5;
  const std::size_t overload_end = params_.clients - params_.clients / 5;
  if (k < warm_end) return 0;
  return k < overload_end ? 1 : 2;
}

std::uint64_t ClientPopulation::next_arrival_gap() {
  const std::size_t k = started_sessions_;
  switch (params_.arrival) {
    case Arrival::kBursty: {
      const double base = k < params_.clients / 5            ? params_.warm_gap
                          : phase_of(k) == 1                 ? params_.overload_gap
                                                             : params_.recovery_gap;
      return onoff_.next_gap(rng_, base);
    }
    case Arrival::kDiurnal: {
      const double progress = static_cast<double>(k) /
                              static_cast<double>(params_.clients);
      const double factor =
          util::diurnal_factor(progress, params_.diurnal_amplitude);
      return util::exponential_gap(rng_, params_.warm_gap / factor);
    }
    case Arrival::kPoisson:
      break;
  }
  const std::uint8_t phase = phase_of(k);
  const double mean = phase == 0   ? params_.warm_gap
                      : phase == 1 ? params_.overload_gap
                                   : params_.recovery_gap;
  return util::exponential_gap(rng_, mean);
}

void ClientPopulation::schedule_next_arrival() {
  if (started_sessions_ >= params_.clients) return;
  auto arrive = [this] { start_session(); };
  static_assert(sim::Simulator::fits_inline<decltype(arrive)>,
                "session arrivals must schedule allocation-free");
  sim_.schedule_in(static_cast<sim::SimTime>(next_arrival_gap()),
                   std::move(arrive));
}

void ClientPopulation::start_session() {
  const std::size_t k = started_sessions_++;
  const util::SlotPool<Session>::Slot slot = sessions_.acquire();
  Session& s = sessions_[slot];
  s.phase = phase_of(k);
  s.remaining = static_cast<std::uint32_t>(util::pareto_int(
      rng_, params_.session_xm, params_.session_alpha, params_.session_cap));
  ++stats_[s.phase].sessions;
  AFT_METRIC_ADD("load.sessions", 1);
  issue(slot);
  schedule_next_arrival();
}

void ClientPopulation::issue(std::uint32_t slot) {
  Session& s = sessions_[slot];
  ++stats_[s.phase].requests;
  AFT_METRIC_ADD("load.requests", 1);
  // {this, slot}: trivially copyable and inside std::function's inline
  // buffer, so issuing a request allocates nothing.
  client_.call("invoke", request_payload_, params_.call,
               [this, slot](const net::RpcResult& result) {
                 on_result(slot, result);
               });
}

void ClientPopulation::on_result(std::uint32_t slot,
                                 const net::RpcResult& result) {
  Session& s = sessions_[slot];
  PhaseStats& stats = stats_[s.phase];
  const std::uint64_t now = sim_.now();
  if (result.status == net::RpcStatus::kRejected) {
    ++stats.shed;
    AFT_METRIC_ADD("load.shed", 1);
    // A shed burns SLO budget at the full deadline: for that client the
    // service failed its objective, and counting sheds as cheap successes
    // would let admission control mask the very overload it manages.
    if (params_.slo != nullptr) params_.slo->record(now, params_.call.deadline);
  } else {
    if (result.status == net::RpcStatus::kOk) {
      ++stats.ok;
      AFT_METRIC_ADD("load.ok", 1);
    } else {
      ++stats.failed;
      AFT_METRIC_ADD("load.failed", 1);
    }
    stats.latency.add(static_cast<std::uint64_t>(result.elapsed));
    if (params_.slo != nullptr) params_.slo->record(now, result.elapsed);
  }
  if (--s.remaining == 0) {
    ++completed_sessions_;
    sessions_.release(slot);
    if (done()) {
      AFT_TRACE("load.population", "done",
                {{"clients", params_.clients},
                 {"peak_active", sessions_.capacity()}});
    }
    return;
  }
  auto think = [this, slot] { issue(slot); };
  static_assert(sim::Simulator::fits_inline<decltype(think)>,
                "session think time must schedule allocation-free");
  sim_.schedule_in(
      static_cast<sim::SimTime>(
          util::exponential_gap(rng_, params_.think_mean)),
      std::move(think));
}

}  // namespace aft::load
