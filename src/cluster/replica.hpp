// A replicated service on the net substrate — ROADMAP item 2, the paper's
// Sect. 3.3 autonomic-redundancy loop re-run at distributed-system scale.
// Every piece already exists; this module only composes them:
//
//   pool        N replica nodes, each a net::Endpoint behind its own pair
//               of faulty net::Links (coordinator->replica and back), so
//               loss, partitions, and asymmetric degradation hit each
//               replica independently.
//   fan-out     invoke() sends one RPC per *live* replica; responses are
//               collected as vote::Ballots (no-reply slots get per-slot
//               sentinel ballots that can never form a majority).
//   organ       the collected ballots are voted and settled by the same
//               autonomic::RestoringOrgan as in process: dtof and dissent
//               over network replicas, and a per-unit judge of each
//               ballot stream whose persistent dissenters this front-end
//               retires ("suspect") until repair().
//   liveness    replicas heartbeat the coordinator; net::Membership turns
//               miss patterns into evict/reinstate transitions.  The
//               pool is tracked in order, so a member id is the pool
//               index and each replica's heartbeat handler credits its
//               own id.  A member that resumes beating is auto-reinstated
//               after `reinstate_after_beats` beats — arriving beats ARE
//               the evidence the unit healed.
//   adaptation  every round report flows into the
//               autonomic::ReflectiveSwitchboard (dissent raises, calm
//               lowers), and every eviction is pushed to it as an external
//               disturbance (notify_disturbance) so redundancy grows the
//               moment a replica is lost — not only after its absence
//               shows up as dissent.
//
// Causality plane: an eviction's trace ancestry reads, root first,
//   net.link/drop (the heartbeat the wire ate)
//     -> net.membership/member-down (verdict transition)
//       -> cluster.replica/evict
//         -> autonomic.switchboard/disturbance -> raise
// so `aft_trace why <raise>` explains a cluster-wide resize from the
// physical frame loss that provoked it.
//
// Everything is driven by the deterministic sim kernel and seeded RNG
// streams: a (seed, fault-model, schedule) triple reproduces an identical
// cluster history, and campaign traces merge byte-identically for any
// AFT_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autonomic/organ.hpp"
#include "autonomic/switchboard.hpp"
#include "net/breaker.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "net/membership.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/inline_fn.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"
#include "vote/voting_farm.hpp"

namespace aft::cluster {

/// Fault models of one replica's two wires.
struct ReplicaWire {
  net::LinkFaults to_replica{};    ///< coordinator -> replica direction
  net::LinkFaults from_replica{};  ///< replica -> coordinator direction
};

/// What a bounded invoke queue does when another invoke() arrives full —
/// the explicit version of the "load is bounded" assumption the unbounded
/// queue silently made (the paper's Sect. 2 failed-assumption archetype).
enum class ShedPolicy : std::uint8_t {
  kRejectNewest,    ///< shed the incoming invoke (tail drop)
  kRejectOldest,    ///< shed the head of the queue, admit the incoming
  kProbabilistic,   ///< shed incoming with P = depth/limit (early pushback)
};

[[nodiscard]] const char* to_string(ShedPolicy policy) noexcept;

struct AdmissionParams {
  /// Maximum invokes queued behind the in-flight round; 0 = unbounded (the
  /// legacy behavior, kept for closed-loop experiments that self-limit).
  std::size_t queue_limit = 0;
  ShedPolicy policy = ShedPolicy::kRejectNewest;
};

struct ClusterParams {
  /// Replica nodes provisioned.  The switchboard works the live subset:
  /// keep pool >= policy.max_replicas so a raise always has spares.  At
  /// most ReplicatedService::kMaxPool.
  std::size_t pool = 9;
  /// Wire model every replica starts with; experiments degrade individual
  /// links afterwards via link_to()/link_from() + set_faults()/partition().
  ReplicaWire wire{};
  autonomic::ReflectiveSwitchboard::Policy policy{};
  /// Per-fan-out-call RPC options (deadline/retry).  `breaker` is ignored:
  /// per-replica breakers are configured via `breaker` below.
  net::CallOptions call{};
  /// When set, each replica channel gets its own CircuitBreaker.
  std::optional<net::CircuitBreaker::Params> breaker{};
  sim::SimTime heartbeat_period = 4;
  net::Membership::Params membership{};
  /// Beats a down member must deliver before it is auto-reinstated.  The
  /// beats must be consecutive: a missed window while down restarts the
  /// count (a flapping member has not demonstrated a heal).
  std::uint32_t reinstate_after_beats = 3;
  /// Backpressure on the strictly-sequential invoke queue.
  AdmissionParams admission{};
  /// Key authenticating switchboard resize commands.
  std::uint64_t shared_key = 0xAF7C1;
};

/// Lifetime tallies of the coordinator's view of the cluster.
struct ClusterCounters {
  std::uint64_t rounds = 0;             ///< invoke() rounds completed
  std::uint64_t no_quorum = 0;          ///< rounds without a majority
  std::uint64_t dissent_rounds = 0;     ///< rounds with >= 1 dissenting ballot
  std::uint64_t evictions = 0;          ///< member-down transitions
  std::uint64_t reinstatements = 0;     ///< member-up transitions
  std::uint64_t suspects = 0;           ///< ballot-verdict retirements
  std::uint64_t cleared = 0;            ///< suspects cleared (repair)
  std::uint64_t short_rounds = 0;       ///< rounds with fewer live replicas than arity
  std::uint64_t substituted_rounds = 0; ///< rounds using non-prefix pool members
  std::uint64_t rpc_failures = 0;       ///< fan-out calls that missed their ballot
  std::uint64_t admitted = 0;           ///< invokes accepted (run or queued)
  std::uint64_t shed = 0;               ///< invokes shed by admission control
  /// Admitted invokes later shed from the queue head (reject-oldest), so
  /// admitted == rounds + evicted + queued (+ 1 while a round is in flight).
  std::uint64_t evicted = 0;
  std::size_t queue_peak = 0;           ///< high-water mark of the invoke queue
};

/// How one invoke() ended, from the caller's point of view.
enum class InvokeOutcome : std::uint8_t {
  kCompleted,  ///< a round ran; the report is meaningful
  kShed,       ///< admission control refused it; the report is empty
};

class ReplicatedService {
 public:
  /// The replicated computation, same contract as vote::VotingFarm::Task:
  /// a correct, undisturbed replica returns the same value for every
  /// `replica` index; experiments make replicas diverge.
  using Task = std::function<vote::Ballot(vote::Ballot input, std::size_t replica)>;
  /// Completion callback of one invoke(): a completed round's report, or a
  /// shed notification (kShed, empty report).  Inline-stored so queueing
  /// and dispatching invokes at traffic-plane rates never allocates —
  /// callers' captures (a net::Endpoint::Responder, a couple of pointers)
  /// must fit 64 bytes, same contract as the sim kernel's actions.
  using Done = util::InlineFn<void(InvokeOutcome, const vote::RoundReport&), 64>;

  /// Largest pool: a fan-out reply is tagged with its node index in 12 bits.
  static constexpr std::size_t kMaxPool = std::size_t{1} << 12;

  ReplicatedService(sim::Simulator& sim, ClusterParams params, Task task,
                    std::uint64_t seed);

  /// Registers all pool members with Membership and starts their
  /// heartbeats.  Must be called (once) before invoke().
  void start();

  /// Runs one replicate-and-vote round over the live replica set.  Rounds
  /// are strictly sequential: an invoke() while one is in flight is queued
  /// — subject to admission control (ClusterParams::admission) — and
  /// dispatched, under the caller's causal context, when the current round
  /// completes.  A shed invoke's `done` fires synchronously with kShed.
  void invoke(vote::Ballot input, Done done = nullptr);

  /// Invokes queued behind the in-flight round right now.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }

  /// Administrative unit replacement (Sect. 3.2): clears replica `i`'s
  /// ballot-stream evidence (un-suspecting it) and reinstates its
  /// membership if it was down.
  void repair(std::size_t i);

  /// Replica `i` is live: membership-up and not a ballot suspect.
  [[nodiscard]] bool eligible(std::size_t i) const;
  [[nodiscard]] bool suspect(std::size_t i) const {
    return nodes_.at(i)->suspect;
  }
  [[nodiscard]] const std::string& replica_name(std::size_t i) const {
    return nodes_.at(i)->name;
  }
  [[nodiscard]] std::size_t pool() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t live_count() const;

  /// The wires of replica `i`, for experiments to degrade/partition/heal.
  [[nodiscard]] net::Link& link_to(std::size_t i) { return nodes_.at(i)->to; }
  [[nodiscard]] net::Link& link_from(std::size_t i) {
    return nodes_.at(i)->from;
  }
  /// Coordinator-side RPC tallies of replica `i`'s channel.
  [[nodiscard]] const net::RpcCounters& rpc_counters(std::size_t i) const {
    return nodes_.at(i)->coord.counters();
  }

  [[nodiscard]] net::Membership& membership() noexcept { return membership_; }
  [[nodiscard]] autonomic::ReflectiveSwitchboard& switchboard() noexcept {
    return organ_.board();
  }
  [[nodiscard]] vote::VotingFarm& farm() noexcept { return organ_.farm(); }
  [[nodiscard]] const autonomic::RestoringOrgan& organ() const noexcept {
    return organ_;
  }
  [[nodiscard]] const ClusterCounters& counters() const noexcept {
    return counters_;
  }

  /// The sentinel ballot of a slot whose replica never answered.
  static constexpr auto no_reply = vote::no_reply;

 private:
  /// One replica node plus the coordinator's private channel to it.
  struct Node {
    Node(sim::Simulator& sim, std::string node_name, const ReplicaWire& wire,
         std::uint64_t seed)
        : name(std::move(node_name)),
          to(sim, "coord->" + name, wire.to_replica, seed),
          from(sim, name + "->coord", wire.from_replica, seed + 1),
          replica(sim, name, seed + 2),
          coord(sim, "coord:" + name, seed + 3) {}

    std::string name;
    net::Link to;    ///< coordinator -> replica
    net::Link from;  ///< replica -> coordinator
    net::Endpoint replica;  ///< replica side: serves "compute", beats
    net::Endpoint coord;    ///< coordinator side: fans out calls
    std::optional<net::CircuitBreaker> breaker;
    bool suspect = false;          ///< retired by the organ's judge
    std::uint32_t resumed_beats = 0;  ///< beats received while down
  };

  struct Pending {
    vote::Ballot input = 0;
    Done done;
    /// The caller's causal context, snapshotted at enqueue and reinstated
    /// when the round finally dispatches — the sim::Simulator treatment of
    /// scheduled entries, without which a queued invoke's round would chain
    /// to whatever completed the previous round instead of to its caller.
    obs::EventId cause = obs::kNoEvent;
  };

  /// One fan-out round in flight.
  struct Round {
    std::uint64_t id = 0;
    vote::Ballot input = 0;
    Done done;
    std::size_t n = 0;         ///< farm arity when the round started
    std::vector<vote::Ballot> ballots;    ///< per slot, sentinel-prefilled
    std::vector<std::size_t> assignment;  ///< slot -> pool index
    std::size_t pending = 0;   ///< replies still outstanding
    bool dispatching = false;  ///< fan-out loop still placing calls
  };

  void begin_round(vote::Ballot input, Done done);
  void on_reply(std::uint64_t round, std::size_t slot, std::size_t node,
                const net::RpcResult& result);
  void finalize_round();
  /// Queues an invoke behind the in-flight round (cause snapshot included).
  void enqueue(vote::Ballot input, Done done);
  /// Completes `done` with kShed and records the shed.  `cause` (when not
  /// kNoEvent) is installed around the shed record and callback — the
  /// snapshotted context of a *queued* invoke evicted by reject-oldest;
  /// synchronous sheds inherit the ambient (caller's) cause instead.
  void shed(Done done, obs::EventId cause = obs::kNoEvent);
  void on_beat(std::size_t i);
  void on_member_change(std::size_t i, bool up);

  sim::Simulator& sim_;
  ClusterParams params_;
  Task task_;
  /// Pool index = membership id (start() tracks the pool in order).
  std::vector<std::unique_ptr<Node>> nodes_;
  autonomic::RestoringOrgan organ_;
  net::Membership membership_;
  Round round_;
  bool round_in_flight_ = false;
  util::RingQueue<Pending> queue_;
  /// Dedicated stream for probabilistic shedding, so admission decisions
  /// never perturb the node RNGs (seed layout: nodes use seed + 8*i).
  util::Xoshiro256 admit_rng_;
  std::uint64_t round_seq_ = 0;
  bool started_ = false;
  ClusterCounters counters_;
};

}  // namespace aft::cluster
