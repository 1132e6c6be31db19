#include "net/endpoint.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::net {

const char* to_string(RpcStatus status) noexcept {
  switch (status) {
    case RpcStatus::kOk: return "ok";
    case RpcStatus::kCircuitOpen: return "circuit-open";
    case RpcStatus::kDeadlineExceeded: return "deadline-exceeded";
    case RpcStatus::kExhausted: return "exhausted";
    case RpcStatus::kRejected: return "rejected";
  }
  return "?";
}

Endpoint::Endpoint(sim::Simulator& sim, std::string name, std::uint64_t seed)
    : sim_(sim), name_(std::move(name)), rng_(seed) {}

void Endpoint::attach(Link& inbound, Link& outbound) {
  out_ = &outbound;
  inbound.set_receiver([this](Frame&& frame) { receive(std::move(frame)); });
}

void Endpoint::serve(const std::string& method, Handler handler) {
  handlers_[method] = std::move(handler);
}

void Endpoint::serve_async(const std::string& method, AsyncHandler handler) {
  async_handlers_[method] = std::move(handler);
}

Endpoint::Call* Endpoint::find_call(std::uint64_t id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= calls_.size()) return nullptr;
  Call& c = calls_[slot];
  if (!c.active || c.generation != generation) return nullptr;
  return &c;
}

void Endpoint::call(const std::string& method, const std::string& payload,
                    const CallOptions& options, Callback callback) {
  if (out_ == nullptr) throw std::logic_error("Endpoint: not attached");
  if (options.deadline == 0) {
    throw std::invalid_argument("Endpoint: call deadline must be > 0");
  }
  if (options.retry.max_attempts == 0) {
    throw std::invalid_argument("Endpoint: retry.max_attempts must be >= 1");
  }
  std::uint32_t slot;
  if (free_calls_.empty()) {
    calls_.emplace_back();
    slot = static_cast<std::uint32_t>(calls_.size() - 1);
  } else {
    slot = free_calls_.back();
    free_calls_.pop_back();
  }
  Call& c = calls_[slot];
  const std::uint64_t id =
      (static_cast<std::uint64_t>(c.generation) << 32) | slot;
  c.active = true;
  c.attempt = 0;
  c.failed = false;
  c.method = method;
  c.payload = payload;
  c.options = options;
  c.callback = std::move(callback);
  c.started = sim_.now();
  ++outstanding_;
  ++counters_.calls;
  AFT_METRIC_ADD("net.rpc.calls", 1);

  // The call record is a chain origin: every attempt, wire hop, serve, and
  // the final done record walk back to it (and through it to whatever
  // caused the call).
  const obs::CauseScope cause(
      "net.rpc", "call", {{"endpoint", name_}, {"id", id}, {"method", method}});
  start_attempt(id);
}

void Endpoint::start_attempt(std::uint64_t id) {
  Call& c = *find_call(id);
  c.probe = CircuitBreaker::kNotAProbe;
  if (c.options.breaker != nullptr && !c.options.breaker->allow(&c.probe)) {
    AFT_TRACE("net.rpc", "rejected",
              {{"endpoint", name_}, {"id", id}, {"attempt", c.attempt + 1}});
    finish(id, RpcStatus::kCircuitOpen, {});
    return;
  }
  ++c.attempt;
  c.failed = false;
  ++counters_.attempts;
  AFT_METRIC_ADD("net.rpc.attempts", 1);
  AFT_TRACE("net.rpc", "attempt",
            {{"endpoint", name_},
             {"id", id},
             {"attempt", c.attempt},
             {"method", c.method}});
  Frame request;
  request.kind = FrameKind::kRequest;
  request.id = id;
  request.aux = c.attempt;
  request.method = c.method;
  request.payload = c.payload;
  request.origin = name_;
  out_->send(std::move(request));
  // Cancelled by a reply, a failure or completion, so it fires only for an
  // attempt still waiting.
  auto timeout = [this, id] { attempt_failed(id, "deadline"); };
  static_assert(sim::Simulator::fits_inline<decltype(timeout)>,
                "rpc deadline check must schedule allocation-free");
  c.timer = sim_.schedule_in(c.options.deadline, std::move(timeout));
}

void Endpoint::attempt_failed(std::uint64_t id,
                              [[maybe_unused]] const char* reason) {
  Call& c = *find_call(id);
  // One failure per attempt: a duplicated failing response can arrive
  // twice, and would fail the same attempt again during the backoff,
  // double-counting breaker/failure evidence and possibly finishing the
  // call while its retry is scheduled.
  if (c.failed) return;
  c.failed = true;
  sim_.cancel(c.timer);  // an app-error leaves the deadline armed
  if (c.options.breaker != nullptr) c.options.breaker->record(false, c.probe);
  ++counters_.attempt_failures;
  AFT_METRIC_ADD("net.rpc.attempt_failures", 1);
  AFT_TRACE("net.rpc", "attempt-failed",
            {{"endpoint", name_},
             {"id", id},
             {"attempt", c.attempt},
             {"reason", reason}});
  const RetryPolicy& policy = c.options.retry;
  if (c.attempt >= policy.max_attempts) {
    finish(id, RpcStatus::kExhausted, {});
    return;
  }
  const sim::SimTime backoff = policy.backoff(c.attempt, rng_);
  if (policy.time_budget > 0 &&
      sim_.now() + backoff > c.started + policy.time_budget) {
    finish(id, RpcStatus::kDeadlineExceeded, {});
    return;
  }
  AFT_TRACE("net.rpc", "backoff",
            {{"endpoint", name_}, {"id", id}, {"delay", backoff}});
  // A late success that completes the call during the backoff cancels it.
  auto retry = [this, id] { start_attempt(id); };
  static_assert(sim::Simulator::fits_inline<decltype(retry)>,
                "rpc retry must schedule allocation-free");
  c.timer = sim_.schedule_in(backoff, std::move(retry));
}

void Endpoint::finish(std::uint64_t id, RpcStatus status,
                      std::string payload) {
  Call& c = *find_call(id);
  sim_.cancel(c.timer);
  switch (status) {
    case RpcStatus::kOk: ++counters_.ok; break;
    case RpcStatus::kCircuitOpen: ++counters_.circuit_open; break;
    case RpcStatus::kDeadlineExceeded: ++counters_.deadline_exceeded; break;
    case RpcStatus::kExhausted: ++counters_.exhausted; break;
    case RpcStatus::kRejected: ++counters_.rejected; break;
  }
  if (status == RpcStatus::kOk) {
    AFT_METRIC_ADD("net.rpc.ok", 1);
  } else {
    AFT_METRIC_ADD("net.rpc.failed", 1);
  }
  AFT_TRACE("net.rpc", "done",
            {{"endpoint", name_},
             {"id", id},
             {"status", to_string(status)},
             {"attempts", c.attempt}});
  RpcResult result;
  result.status = status;
  result.payload = std::move(payload);
  result.attempts = c.attempt;
  result.elapsed = sim_.now() - c.started;
  // Tail-latency evidence (the "quantiles" JSON export): call latency split
  // by outcome, plus the attempt count distribution.  Breaker and admission
  // rejections complete fast by design — folding them into latency.fail
  // would drag its quantiles toward zero, so they share their own stat and
  // stay out of attempts_per_call.
  if (status == RpcStatus::kCircuitOpen || status == RpcStatus::kRejected) {
    AFT_METRIC_OBSERVE("net.rpc.latency.rejected",
                       static_cast<double>(result.elapsed));
  } else {
    if (status == RpcStatus::kOk) {
      AFT_METRIC_OBSERVE("net.rpc.latency.ok",
                         static_cast<double>(result.elapsed));
    } else {
      AFT_METRIC_OBSERVE("net.rpc.latency.fail",
                         static_cast<double>(result.elapsed));
    }
    AFT_METRIC_OBSERVE("net.rpc.attempts_per_call",
                       static_cast<double>(c.attempt));
  }
  // Release the slot *before* the callback runs: moving the callback out
  // first means a callback that re-enters call() — possibly growing the
  // pool vector or reusing this very slot under a fresh generation — can
  // invalidate neither this completion nor the Call reference (which must
  // not be touched past this point).
  Callback callback = std::move(c.callback);
  c.callback = nullptr;
  c.active = false;
  ++c.generation;
  free_calls_.push_back(static_cast<std::uint32_t>(id & 0xffffffffu));
  --outstanding_;
  if (callback) callback(result);
}

void Endpoint::receive(Frame&& frame) {
  switch (frame.kind) {
    case FrameKind::kRequest:
      handle_request(std::move(frame));
      return;
    case FrameKind::kResponse:
      handle_response(std::move(frame));
      return;
    case FrameKind::kHeartbeat:
      ++heartbeats_received_;
      if (heartbeat_handler_) heartbeat_handler_(frame.origin);
      return;
    case FrameKind::kData:
      if (data_handler_) data_handler_(std::move(frame));
      return;
  }
}

void Endpoint::handle_request(Frame&& frame) {
  const auto async_it = async_handlers_.find(frame.method);
  if (async_it != async_handlers_.end()) {
    ++counters_.served;
    AFT_METRIC_ADD("net.rpc.served", 1);
    AFT_TRACE("net.rpc", "serve",
              {{"endpoint", name_},
               {"id", frame.id},
               {"method", frame.method},
               {"async", true}});
    async_it->second(frame.payload, Responder(this, frame.id, frame.aux));
    return;
  }
  Frame response;
  response.kind = FrameKind::kResponse;
  response.id = frame.id;
  response.aux = frame.aux;
  response.origin = name_;
  const auto it = handlers_.find(frame.method);
  if (it == handlers_.end()) {
    response.ok = false;
    response.payload = "unknown-method";
  } else {
    response.ok = it->second(frame.payload, response.payload);
  }
  ++counters_.served;
  AFT_METRIC_ADD("net.rpc.served", 1);
  AFT_TRACE("net.rpc", "serve",
            {{"endpoint", name_},
             {"id", frame.id},
             {"method", frame.method},
             {"ok", response.ok}});
  if (out_ != nullptr) out_->send(std::move(response));
}

void Endpoint::handle_response(Frame&& frame) {
  Call* const c = find_call(frame.id);
  if (c == nullptr || c->attempt != frame.aux) {
    // Late (the call completed, or this attempt was superseded by a retry)
    // or duplicated on the wire: honoring it could complete a call twice.
    ++counters_.stale_responses;
    AFT_METRIC_ADD("net.rpc.stale_responses", 1);
    AFT_TRACE("net.rpc", "stale-response",
              {{"endpoint", name_}, {"id", frame.id}, {"attempt", frame.aux}});
    return;
  }
  if (c->options.breaker != nullptr && (frame.ok || frame.rejected)) {
    // The wire and the server both worked; an admission shed is a healthy
    // channel saying no, not channel evidence.
    c->options.breaker->record(true, c->probe);
  }
  if (frame.rejected) {
    // Deliberate server pushback is terminal: retrying a shed request into
    // the same overload would only deepen it.
    finish(frame.id, RpcStatus::kRejected, std::move(frame.payload));
  } else if (frame.ok) {
    finish(frame.id, RpcStatus::kOk, std::move(frame.payload));
  } else {
    attempt_failed(frame.id, "app-error");
  }
}

void Endpoint::async_respond(std::uint64_t id, std::uint32_t aux, bool ok,
                             bool rejected, std::string&& payload) {
  Frame response;
  response.kind = FrameKind::kResponse;
  response.id = id;
  response.aux = aux;
  response.ok = ok;
  response.rejected = rejected;
  response.payload = std::move(payload);
  response.origin = name_;
  AFT_TRACE("net.rpc", "respond",
            {{"endpoint", name_},
             {"id", id},
             {"ok", ok},
             {"rejected", rejected}});
  if (out_ != nullptr) out_->send(std::move(response));
}

void Endpoint::send_data(Frame frame) {
  if (out_ == nullptr) throw std::logic_error("Endpoint: not attached");
  frame.kind = FrameKind::kData;
  frame.id = ++data_seq_;
  out_->send(std::move(frame));
}

void Endpoint::start_heartbeats(sim::SimTime period) {
  if (out_ == nullptr) throw std::logic_error("Endpoint: not attached");
  if (period == 0) {
    throw std::invalid_argument("Endpoint: heartbeat period must be > 0");
  }
  hb_period_ = period;
  sim_.cancel(hb_timer_);  // a restart replaces the running chain
  heartbeat_tick();
}

void Endpoint::heartbeat_tick() {
  Frame beat;
  beat.kind = FrameKind::kHeartbeat;
  beat.id = ++hb_seq_;
  beat.origin = name_;
  out_->send(std::move(beat));
  auto chain = [this] { heartbeat_tick(); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "heartbeat emitter must schedule allocation-free");
  hb_timer_ = sim_.schedule_in(hb_period_, std::move(chain));
}

}  // namespace aft::net
