#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::sim {

void Simulator::throw_past() {
  throw std::invalid_argument("Simulator: event in the past");
}

Simulator::Handle Simulator::enqueue(Slot slot, SimTime when) {
  // Dispatch lag: entries fire exactly at `when`, so the schedule-to-
  // dispatch latency is known here.  Recorded through a cached Stat handle
  // so the steady-state cost is one add, not a map lookup.
  if (obs::MetricsRegistry* reg = obs::metrics(); reg != nullptr) {
    if (reg != lag_registry_ || reg->uid() != lag_registry_uid_) {
      lag_registry_ = reg;
      lag_registry_uid_ = reg->uid();
      lag_stat_ = &reg->stat("sim.dispatch_lag");
    }
    lag_stat_->add(static_cast<double>(when - now_));
  }
  Entry& entry = at(slot);
  entry.when = when;
  entry.seq = next_seq_++;
  entry.cause = obs::current_cause();
  if (when - now_ < kWindow) {
    push_near(slot, when);
  } else {
    entry.prev = kFar;
    push_far(slot, when);
  }
  return Handle{slot, entry.seq};
}

Simulator::Slot Simulator::acquire() {
  if (free_ != kNil) {
    const Slot slot = free_;
    free_ = at(slot).next;
    return slot;
  }
  if (grown_ == chunks_.size() * kChunk) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunk));
  }
  return grown_++;
}

void Simulator::release(Slot slot) noexcept {
  Entry& entry = at(slot);
  entry.action.reset();
  entry.prev = kDead;
  entry.next = free_;
  free_ = slot;
}

void Simulator::cancel(Handle handle) noexcept {
  if (handle.slot >= grown_) return;
  Entry& entry = at(handle.slot);
  if (entry.seq != handle.seq || entry.prev == kDead) return;
  if (entry.prev == kFar) {
    // Lazy deletion: the node stays in the heap, so no survivor moves.
    entry.action.reset();
    entry.prev = kDead;
    ++far_dead_;
    purge_far();
    return;
  }
  const std::size_t i = entry.when & kMask;
  Bucket& bucket = buckets_[i];
  if (bucket.head == handle.slot) {
    bucket.head = entry.next;
  } else {
    at(entry.prev).next = entry.next;
  }
  if (entry.next == kNil) {
    bucket.tail = bucket.head == kNil ? kNil : entry.prev;
  } else {
    at(entry.next).prev = entry.prev;
  }
  --near_size_;
  if (bucket.head == kNil) {
    occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    if (entry.when == near_min_) {
      near_min_ = near_size_ == 0 ? kNever : near_after(near_min_);
    }
  }
  release(handle.slot);
}

void Simulator::reserve(std::size_t n) {
  chunks_.reserve((n + kChunk - 1) / kChunk);
  while (chunks_.size() * kChunk < n) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunk));
  }
  far_.reserve(n);
}

void Simulator::push_near(Slot slot, SimTime when) {
  Entry& entry = at(slot);
  entry.next = kNil;
  const std::size_t i = when & kMask;
  Bucket& bucket = buckets_[i];
  if (bucket.head == kNil) {
    entry.prev = kNil;
    bucket.head = slot;
    occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
    if (when < near_min_) near_min_ = when;
  } else {
    entry.prev = bucket.tail;
    at(bucket.tail).next = slot;
  }
  bucket.tail = slot;
  ++near_size_;
}

void Simulator::push_far(Slot slot, SimTime when) {
  // Hole-based sift-up.  The new entry carries the largest seq pending, so
  // a parent due at the same tick is already earlier: comparing `when`
  // alone is exact here.
  std::size_t hole = far_.size();
  far_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (far_[parent].when <= when) break;
    far_[hole] = far_[parent];
    hole = parent;
  }
  far_[hole] = FarNode{when, slot};
}

bool Simulator::far_before(const FarNode& a, const FarNode& b) const noexcept {
  if (a.when != b.when) return a.when < b.when;
  return at(a.slot).seq < at(b.slot).seq;
}

Simulator::Slot Simulator::pop_next() noexcept {
  // On a tie the far entry is earlier: it was due kWindow or more ticks
  // after its schedule, the near one fewer, so the far one was scheduled
  // first and holds the lower seq.
  if (near_size_ != 0 && (far_.empty() || near_min_ < far_.front().when)) {
    return pop_near();
  }
  return pop_far();
}

Simulator::Slot Simulator::pop_near() noexcept {
  const std::size_t i = near_min_ & kMask;
  Bucket& bucket = buckets_[i];
  const Slot slot = bucket.head;
  bucket.head = at(slot).next;
  --near_size_;
  if (bucket.head == kNil) {
    occupied_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    near_min_ = near_size_ == 0 ? kNever : near_after(near_min_);
  }
  return slot;
}

SimTime Simulator::near_after(SimTime t) const noexcept {
  // Every near entry is due in [t, t + kWindow), so the ring read
  // cyclically from t + 1 is in time order.
  const std::size_t start = (t + 1) & kMask;
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
    if (bits != 0) {
      const std::size_t i = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return t + 1 + ((i - start) & kMask);
    }
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  return kNever;
}

Simulator::Slot Simulator::pop_far() noexcept {
  const Slot slot = far_.front().slot;
  drop_far_top();
  purge_far();
  return slot;
}

void Simulator::purge_far() noexcept {
  while (!far_.empty() && at(far_.front().slot).prev == kDead) {
    const Slot dead = far_.front().slot;
    drop_far_top();
    --far_dead_;
    release(dead);
  }
}

void Simulator::drop_far_top() noexcept {
  const FarNode displaced = far_.back();
  far_.pop_back();
  const std::size_t n = far_.size();
  if (n == 0) return;
  // Hole-based sift-down of the displaced tail node.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * 4 + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (far_before(far_[c], far_[best])) best = c;
    }
    if (!far_before(far_[best], displaced)) break;
    far_[hole] = far_[best];
    hole = best;
  }
  far_[hole] = displaced;
}

bool Simulator::step_with(obs::TraceSink* sink) {
  if (idle()) return false;
  const Slot slot = pop_next();
  Entry& entry = at(slot);  // chunks never move: stays valid while it runs
  entry.prev = kDead;       // running: cancel() of its handle is a no-op
  now_ = entry.when;
  ++executed_;
  // Dispatch hook: stamp the obs clock so every record the action takes
  // (trace, metrics timeline, flight recorder) carries the right simulated
  // time, and reinstate the cause id that was current when this entry was
  // scheduled — the dispatched continuation inherits the provenance of its
  // scheduler.  Per-dispatch records are detail-level (they dominate trace
  // volume on long runs).
  AFT_OBS_SET_TIME(now_);
  if (sink != nullptr) {
    sink->set_cause(entry.cause);
    if (sink->detail()) sink->emit("sim", "dispatch", {{"eseq", entry.seq}});
  }
  // The action runs in its slot; the slot is freed afterwards, on unwind
  // too, so a throwing action is consumed like any other.
  struct Release {
    Simulator& sim;
    Slot slot;
    ~Release() { sim.release(slot); }
  } const release{*this, slot};
  entry.action();
  return true;
}

bool Simulator::step() { return step_with(obs::trace()); }

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t ran = 0;
  // Callers that tick an external loop ask once per tick with nothing due:
  // that answer costs two compares, not the sink lookup.
  if (!idle() && next_due() <= until) {
    obs::TraceSink* const sink = obs::trace();
    do {
      step_with(sink);
      ++ran;
    } while (!idle() && next_due() <= until);
  }
  if (now_ < until) now_ = until;
  return ran;
}

std::uint64_t Simulator::run_all() {
  obs::TraceSink* const sink = obs::trace();
  std::uint64_t ran = 0;
  while (step_with(sink)) ++ran;
  return ran;
}

void Simulator::advance_to(SimTime when) {
  if (when < now_) throw std::invalid_argument("Simulator: cannot move clock backwards");
  if (!idle() && next_due() < when) {
    throw std::logic_error("Simulator: advancing past pending events");
  }
  now_ = when;
}

}  // namespace aft::sim
