// One node's attachment point to the simulated network: an Endpoint owns
// the node side of a Link pair and demultiplexes arriving frames into the
// three planes the Sect. 3.2/3.3 fabric needs —
//
//   RPC      call()/serve(): request/response with a per-call deadline,
//            RetryPolicy-driven re-attempts (exponential backoff +
//            deterministic jitter, attempt and time budgets), and an
//            optional CircuitBreaker consulted before every attempt.
//   pub/sub  send_data()/on_data(): the raw datagram plane net::BusBridge
//            forwards arch::EventBus topics over.
//   liveness start_heartbeats()/on_heartbeat(): periodic beats feeding the
//            peer's net::Membership (detect::HeartbeatMonitor underneath).
//
// Failure semantics of a call, in precedence order:
//   kCircuitOpen       the breaker refused an attempt (fail fast, no wire)
//   kRejected          the server shed the request (admission control);
//                      terminal — a deliberate verdict is never retried
//   kDeadlineExceeded  the retry time budget ran out
//   kExhausted         the attempt budget ran out (timeouts or app errors)
//   kOk                a response for the *current* attempt arrived in time
// Responses for superseded attempts are counted as stale and ignored, so a
// slow duplicate can never complete a call twice.
//
// Causality: call() emits a "net.rpc/call" record and installs it as the
// current cause, so the whole attempt/send/deliver/serve/response/done
// chain — across both link hops — walks back to the call (and through it
// to whatever clash or injection provoked the call).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/breaker.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/retry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace aft::net {

enum class RpcStatus : std::uint8_t {
  kOk,
  kCircuitOpen,
  kDeadlineExceeded,
  kExhausted,
  kRejected,
};

[[nodiscard]] const char* to_string(RpcStatus status) noexcept;

struct RpcResult {
  RpcStatus status = RpcStatus::kOk;
  std::string payload;          ///< response body (meaningful on kOk)
  std::uint32_t attempts = 0;   ///< attempts actually placed on the wire
  sim::SimTime elapsed = 0;     ///< ticks from call() to completion
};

struct CallOptions {
  /// Per-attempt deadline in ticks (> 0): an attempt with no response by
  /// then is failed and handed to the retry policy.
  sim::SimTime deadline = 50;
  RetryPolicy retry{};
  /// Consulted before every attempt; a refusal fails the call fast with
  /// kCircuitOpen.  May be null (no breaking).
  CircuitBreaker* breaker = nullptr;
};

/// Lifetime tallies of one endpoint's RPC traffic.
struct RpcCounters {
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  std::uint64_t circuit_open = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t attempts = 0;          ///< attempts placed on the wire
  std::uint64_t attempt_failures = 0;  ///< timeouts + app-error responses
  std::uint64_t stale_responses = 0;   ///< late/duplicate responses ignored
  std::uint64_t served = 0;            ///< requests handled server-side
  std::uint64_t rejected = 0;          ///< calls the server shed (admission)
};

class Endpoint {
 public:
  /// Server handler: fills `response`, returns the application verdict
  /// (false is an app error — retried by the caller like a timeout).
  using Handler =
      std::function<bool(const std::string& request, std::string& response)>;
  using Callback = std::function<void(const RpcResult&)>;
  using DataHandler = std::function<void(Frame&&)>;
  using HeartbeatHandler = std::function<void(const std::string& origin)>;

  /// One-shot reply capability handed to an async handler (serve_async):
  /// a trivially copyable {endpoint, call id, attempt} triple, cheap to
  /// park in queues or completion callbacks until the service decides.
  /// Exactly one of respond()/fail()/reject() should be called, once.
  class Responder {
   public:
    /// Successful response carrying `payload`.
    void respond(std::string payload) const {
      ep_->async_respond(id_, aux_, /*ok=*/true, /*rejected=*/false,
                         std::move(payload));
    }
    /// Application error: the caller retries it like a timeout.
    void fail(std::string payload = {}) const {
      ep_->async_respond(id_, aux_, /*ok=*/false, /*rejected=*/false,
                         std::move(payload));
    }
    /// Admission shed: completes the caller with kRejected, terminally.
    void reject(std::string payload = {}) const {
      ep_->async_respond(id_, aux_, /*ok=*/false, /*rejected=*/true,
                         std::move(payload));
    }

   private:
    friend class Endpoint;
    Responder(Endpoint* ep, std::uint64_t id, std::uint32_t aux) noexcept
        : ep_(ep), id_(id), aux_(aux) {}
    Endpoint* ep_;
    std::uint64_t id_;
    std::uint32_t aux_;
  };

  /// Async server handler: decides *when* to reply via the Responder
  /// (possibly ticks later).  Note that a duplicated request frame invokes
  /// the handler once per copy — the duplicate's response is dropped as
  /// stale client-side, but server-side work is not deduplicated.
  using AsyncHandler =
      std::function<void(const std::string& request, Responder responder)>;

  Endpoint(sim::Simulator& sim, std::string name, std::uint64_t seed);

  /// Wires the endpoint to its peer: frames sent here leave on `outbound`,
  /// frames arriving on `inbound` are demultiplexed here.
  void attach(Link& inbound, Link& outbound);

  /// Registers the server-side handler for `method` (replaces any prior).
  void serve(const std::string& method, Handler handler);

  /// Registers an asynchronous handler for `method`: the response is sent
  /// whenever the handler (or whoever it hands the Responder to) decides.
  /// An async registration shadows any serve() handler of the same name.
  void serve_async(const std::string& method, AsyncHandler handler);

  /// Starts one RPC.  The callback fires exactly once, at completion.
  void call(const std::string& method, const std::string& payload,
            const CallOptions& options, Callback callback);

  /// Raw datagram plane (BusBridge): forwards `frame` as kData.
  void send_data(Frame frame);
  void on_data(DataHandler handler) { data_handler_ = std::move(handler); }

  /// Emits a heartbeat now and then every `period` ticks until stopped.
  void start_heartbeats(sim::SimTime period);
  void stop_heartbeats() noexcept { sim_.cancel(hb_timer_); }
  void on_heartbeat(HeartbeatHandler handler) {
    heartbeat_handler_ = std::move(handler);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const RpcCounters& counters() const noexcept {
    return counters_;
  }
  /// Calls started but not yet completed.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }
  [[nodiscard]] std::uint64_t heartbeats_received() const noexcept {
    return heartbeats_received_;
  }

 private:
  /// In-flight call state, parked in a freelist-recycled slot vector (the
  /// util::SlotPool idiom, inlined here because slots carry a generation):
  /// the wire call id is (generation << 32) | slot, so a recycled slot
  /// invalidates every stale reference to its previous occupant — late and
  /// duplicate responses fail the generation check exactly like they used
  /// to fail the map lookup, but steady-state call traffic no
  /// longer allocates a map node per call, and recycled slots keep their
  /// method/payload string capacity.
  struct Call {
    std::string method;
    std::string payload;
    CallOptions options;
    Callback callback;
    std::uint32_t attempt = 0;  ///< current attempt number (1-based)
    sim::SimTime started = 0;
    /// The current attempt already failed and its retry is pending: a
    /// duplicated failing response still carries the attempt's number.
    bool failed = false;
    /// The call's one pending timer: the current attempt's deadline, or
    /// the retry during a backoff.  Cancelled when either stops mattering.
    sim::Simulator::Handle timer;
    /// Breaker admission token of the current attempt (kNotAProbe when the
    /// call has no breaker or was not admitted as a half-open probe).
    CircuitBreaker::ProbeToken probe = CircuitBreaker::kNotAProbe;
    std::uint32_t generation = 0;  ///< bumped on release; half the call id
    bool active = false;
  };

  void receive(Frame&& frame);
  void handle_request(Frame&& frame);
  void handle_response(Frame&& frame);
  void start_attempt(std::uint64_t id);
  void attempt_failed(std::uint64_t id, const char* reason);
  void finish(std::uint64_t id, RpcStatus status, std::string payload);
  void heartbeat_tick();
  void async_respond(std::uint64_t id, std::uint32_t aux, bool ok,
                     bool rejected, std::string&& payload);
  /// The live Call behind `id`, or nullptr when the id is stale (completed
  /// call, recycled slot) — the replacement for map find()/end().
  [[nodiscard]] Call* find_call(std::uint64_t id) noexcept;

  sim::Simulator& sim_;
  std::string name_;
  util::Xoshiro256 rng_;
  Link* out_ = nullptr;
  std::map<std::string, Handler> handlers_;
  std::map<std::string, AsyncHandler> async_handlers_;
  std::vector<Call> calls_;         ///< slot-indexed in-flight call pool
  std::vector<std::uint32_t> free_calls_;  ///< recycled slots, LIFO
  std::size_t outstanding_ = 0;
  DataHandler data_handler_;
  HeartbeatHandler heartbeat_handler_;
  sim::SimTime hb_period_ = 0;
  sim::Simulator::Handle hb_timer_;  ///< the next beat
  std::uint64_t hb_seq_ = 0;
  std::uint64_t data_seq_ = 0;
  std::uint64_t heartbeats_received_ = 0;
  RpcCounters counters_;
};

}  // namespace aft::net
