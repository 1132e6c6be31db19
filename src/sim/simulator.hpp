// Deterministic discrete-event simulation kernel.
//
// Every run-time experiment in this repository (fault injection campaigns,
// the Fig. 6 adaptation trace, the Fig. 7 long run) executes on this kernel:
// a logical clock plus an ordered event queue.  Determinism rule: two events
// scheduled for the same tick fire in scheduling order (FIFO tie-break via a
// monotonically increasing sequence number), so a given seed always produces
// the same trace.
//
// Hot-path contract (bench/perf_sim defends it): scheduling, cancelling and
// dispatching an event never touch the heap once the queue's backing
// storage is warm, and all three are O(1) for every event due less than
// kWindow ticks ahead.  The queue has two tiers over one slot pool:
//
//   * Pool.  Entries {when, seq, cause, next, prev, Action} live in chunks
//     that never move, recycled through a LIFO freelist.  A continuation (a
//     util::InlineFn with 64 bytes of in-object storage) is constructed
//     straight in its slot by schedule_at/schedule_in and invoked there —
//     it is never relocated in between.
//   * Near tier.  An entry due within kWindow ticks is appended to a ring of
//     kWindow per-tick doubly linked FIFO lists with an occupancy bitmap.
//     Every pending entry is due at or after now(), so the ring never holds
//     two different ticks in one bucket, and appending in scheduling order
//     already is (when, seq) order.  Link latencies, heartbeats, membership
//     windows, RPC deadlines, backoffs and most think/arrival gaps land here.
//   * Far tier.  An entry due kWindow or more ticks ahead goes into a 4-ary
//     min-heap of 16-byte {when, slot} nodes, ties broken by the slot's seq
//     (client deadlines, SLO windows, partition timers).
//
// Each dispatch takes the earlier, by (when, seq), of the first occupied
// bucket's head and the far heap's top; entries never migrate between
// tiers.  The earliest near tick is cached, so "is anything due by t?" is
// O(1) too.
//
// Cancellation.  schedule_at/schedule_in return a Handle {slot, seq}; seq is
// unique for the kernel's lifetime, so it doubles as the slot's generation.
// cancel(handle) unlinks a near entry from its bucket and frees its slot at
// once.  A far entry is deleted lazily: cancel destroys its continuation
// and marks it a tombstone, which stays in the heap, keeping its seq, until
// it reaches the top and is popped and freed without being dispatched.  No
// survivor changes place, so survivors dispatch in exactly the order they
// would have without the cancels.  cancel() of a handle whose entry already
// ran, is running, or was already cancelled is a no-op; so is cancel() of a
// default-constructed Handle.  pending(), idle() and executed() count live
// entries only: a cancelled entry is neither pending nor ever executed.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/inline_fn.hpp"

namespace aft::obs {
class TraceSink;
class MetricsRegistry;
class Stat;
}  // namespace aft::obs

namespace aft::sim {

/// Logical simulation time in abstract ticks.
using SimTime = std::uint64_t;

class Simulator {
 public:
  /// Scheduled continuation.  Move-only; callables up to 64 bytes of capture
  /// are stored inline (larger ones overflow to the heap — a correctness
  /// fallback no in-tree client takes; see fits_inline).
  using Action = util::InlineFn<void(), 64>;

  /// True when a callable of type F schedules without any heap allocation.
  /// Scheduling clients static_assert this on their continuation lambdas so
  /// a capture that grows past the inline budget is a compile error, not a
  /// silent perf regression.
  template <typename F>
  static constexpr bool fits_inline = Action::template stores_inline<F>;

  /// A scheduled entry, for cancel().  Cheap to copy and to keep; stays
  /// safe to cancel after its entry ran and its slot was recycled.
  struct Handle {
    std::uint32_t slot = ~std::uint32_t{0};
    std::uint64_t seq = ~std::uint64_t{0};
    friend bool operator==(const Handle&, const Handle&) = default;
  };

  /// Width of the near tier in ticks (a power of two).  Only the cost of
  /// scheduling depends on it, never the dispatch order.
  static constexpr SimTime kWindow = 256;

  /// Current logical time.  Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to fire at absolute time `when`; `when` must not lie in
  /// the past.  The continuation is built directly in its pool slot (one
  /// construction, no relocation).  Returns the entry's cancel handle.
  ///
  /// Causality: the trace sink's current cause id is snapshotted into the
  /// entry and reinstated when the entry is dispatched, so every event the
  /// action emits records which event scheduled it (obs/trace.hpp).
  template <typename F>
  Handle schedule_at(SimTime when, F&& fn) {
    if (when < now_) throw_past();
    const Slot slot = acquire();
    try {
      at(slot).action.emplace(std::forward<F>(fn));
    } catch (...) {  // a throwing copy of `fn` hands the slot back
      release(slot);
      throw;
    }
    return enqueue(slot, when);
  }

  /// Schedules `fn` to fire `delay` ticks from now.
  template <typename F>
  Handle schedule_in(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Removes a pending entry without running it, destroying its
  /// continuation.  A no-op when the entry already ran, is running, or was
  /// cancelled before (see the header comment).
  void cancel(Handle handle) noexcept;

  /// Runs events until the queue is empty or `until` is reached (events at
  /// exactly `until` are still executed).  Returns the number of events run.
  std::uint64_t run_until(SimTime until);

  /// Runs all pending events.  Returns the number of events run.
  std::uint64_t run_all();

  /// Executes the single next event, if any.  Returns true when one ran.
  /// An action that throws is consumed all the same: its slot is freed and
  /// the exception propagates to the caller.
  bool step();

  /// Live entries only: cancelled ones are not pending.
  [[nodiscard]] bool idle() const noexcept { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return near_size_ + far_.size() - far_dead_;
  }

  /// Pre-sizes the slot pool and the far heap for `n` concurrently pending
  /// actions, so a run whose peak backlog is known (or bounded) up front
  /// never grows the queue mid-flight — the same contract as
  /// obs::Timeline::reserve for the metrics plane.
  void reserve(std::size_t n);

  /// Events dispatched since construction (lifetime counter; the obs layer
  /// reads it for the "sim.events" metric).  Cancelled entries never count.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Advances the clock without executing anything (for driving the kernel
  /// from an external loop, as the long-run benches do).
  void advance_to(SimTime when);

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNil = ~Slot{0};
  static constexpr SimTime kNever = ~SimTime{0};
  static constexpr SimTime kMask = kWindow - 1;
  static constexpr std::size_t kWords = kWindow / 64;
  static_assert(std::has_single_bit(kWindow) && kWindow >= 64);
  /// Pool chunk size: small, so the pool tracks the peak backlog closely
  /// and an idle kernel costs one chunk.
  static constexpr unsigned kChunkBits = 4;
  static constexpr Slot kChunk = Slot{1} << kChunkBits;

  /// `prev` of a live far entry.
  static constexpr Slot kFar = kNil - 1;
  /// `prev` of an entry no handle may cancel: free, running, or a far
  /// tombstone.
  static constexpr Slot kDead = kNil - 2;

  /// One pool slot.  `cause` is dispatch metadata: the trace event id
  /// current when the entry was scheduled (obs::EventId; ~0 = none), kept a
  /// plain integer so this header stays obs-free.  `next` links the slot
  /// into its bucket's FIFO while queued and into the freelist while free.
  /// `prev`, in what would otherwise be padding, is the back link of a near
  /// entry (stale for a bucket head, which cancel() recognises by the
  /// bucket's head instead) or one of the kFar/kDead states.
  struct Entry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
    Slot next = kNil;
    Slot prev = kDead;
    Action action;
  };
  // The back link lives in padding: an entry stays 112 bytes.
  static_assert(sizeof(Entry) == 112);
  struct Bucket {
    Slot head = kNil;
    Slot tail = kNil;
  };
  struct FarNode {
    SimTime when = 0;
    Slot slot = kNil;
  };

  /// step() with the trace-sink lookup hoisted by the caller, so
  /// run_until/run_all fetch it once per loop instead of once per
  /// dispatched event (the hoisting idiom obs.hpp prescribes for hot
  /// paths).  Sinks are installed by RAII scopes around whole runs, never
  /// from inside a scheduled action, so the pointer cannot go stale
  /// mid-loop.
  bool step_with(obs::TraceSink* sink);

  [[nodiscard]] Entry& at(Slot slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }
  /// The earliest pending tick; kNever when idle.
  [[nodiscard]] SimTime next_due() const noexcept {
    const SimTime far = far_.empty() ? kNever : far_.front().when;
    return near_min_ < far ? near_min_ : far;
  }

  [[noreturn]] static void throw_past();
  /// Pops a free slot; its action is empty.
  Slot acquire();
  void release(Slot slot) noexcept;
  /// Stamps seq and cause on an acquired slot whose action is built, and
  /// queues it on its tier.
  Handle enqueue(Slot slot, SimTime when);
  void push_near(Slot slot, SimTime when);
  void push_far(Slot slot, SimTime when);
  /// Unlinks and returns the earlier of the two tier heads.
  /// Precondition: !idle().
  Slot pop_next() noexcept;
  Slot pop_near() noexcept;
  Slot pop_far() noexcept;
  /// Removes the far heap's top node (the hole-based sift-down).
  void drop_far_top() noexcept;
  /// Pops and frees tombstones until the far top is live: next_due() and
  /// pop_next() never see a cancelled entry.
  void purge_far() noexcept;
  /// The dispatch order: (when, seq), a strict TOTAL order since seqs are
  /// unique, so dispatch is exactly the FIFO-tie-broken time order
  /// whichever tier holds an entry and wherever.
  [[nodiscard]] bool far_before(const FarNode& a, const FarNode& b) const noexcept;
  /// The first occupied near tick after `t`, kNever when there is none.
  [[nodiscard]] SimTime near_after(SimTime t) const noexcept;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Slot grown_ = 0;    ///< slots handed out at least once
  Slot free_ = kNil;  ///< LIFO freelist head

  std::array<Bucket, kWindow> buckets_{};
  std::array<std::uint64_t, kWords> occupied_{};
  // Pending counts fit 32 bits (slots are 32-bit indices).
  std::uint32_t near_size_ = 0;
  std::uint32_t far_dead_ = 0;  ///< cancelled entries still in far_
  SimTime near_min_ = kNever;  ///< earliest near tick; kNever when empty

  std::vector<FarNode> far_;  ///< 4-ary min-heap; its top is never a tombstone

  // Cached handle for the "sim.dispatch_lag" stat (schedule_at is the
  // hottest instrumentation site in the tree; a map lookup per schedule
  // would be measurable).  The (registry, uid) pair detects both a swapped
  // registry and a fresh registry constructed at a recycled address.
  obs::Stat* lag_stat_ = nullptr;
  const obs::MetricsRegistry* lag_registry_ = nullptr;
  std::uint64_t lag_registry_uid_ = 0;
};

}  // namespace aft::sim
