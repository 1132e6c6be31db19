#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::net {

const char* to_string(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::kData: return "data";
    case FrameKind::kRequest: return "request";
    case FrameKind::kResponse: return "response";
    case FrameKind::kHeartbeat: return "heartbeat";
  }
  return "?";
}

Link::Link(sim::Simulator& sim, std::string name, LinkFaults faults,
           std::uint64_t seed)
    : sim_(sim), name_(std::move(name)), faults_(faults), rng_(seed) {
  if (faults_.latency == 0) {
    throw std::invalid_argument("Link: latency must be >= 1 tick");
  }
}

void Link::note_drop(const Frame& frame, const char* reason) {
  ++counters_.dropped;
  AFT_METRIC_ADD("net.link.dropped", 1);
  // Manual emit (not AFT_TRACE) so the record's id can be remembered: a
  // later member-down verdict joins back to the exact frame the wire ate.
  if (obs::TraceSink* const sink = obs::trace(); sink != nullptr) {
    const obs::EventId id = sink->emit("net.link", "drop",
                                       {{"link", name_},
                                        {"kind", to_string(frame.kind)},
                                        {"reason", reason}});
    if (id != obs::kNoEvent) {
      last_drop_[static_cast<std::size_t>(frame.kind)] = id;
    }
  } else {
    obs::flight_note("net.link", "drop");
  }
}

sim::SimTime Link::draw_delay() {
  sim::SimTime delay = faults_.latency;
  if (faults_.jitter > 0) delay += rng_.uniform_int(0, faults_.jitter);
  if (faults_.reorder > 0.0 && rng_.bernoulli(faults_.reorder)) {
    const sim::SimTime hold = faults_.reorder_hold > 0
                                  ? faults_.reorder_hold
                                  : 2 * (faults_.latency + faults_.jitter);
    delay += hold;
    ++counters_.reordered;
  }
  return delay;
}

bool Link::send(Frame frame) {
  ++counters_.sent;
  if (partitioned_) {
    ++counters_.partition_drops;
    note_drop(frame, "partition");
    return false;
  }
  if (faults_.drop > 0.0 && rng_.bernoulli(faults_.drop)) {
    note_drop(frame, "loss");
    return false;
  }
  AFT_METRIC_ADD("net.link.sent", 1);

  // The send record becomes the cause of every delivery continuation
  // scheduled below: the sim kernel snapshots the sink's current cause per
  // entry, so "deliver" (and everything the receiver emits) chains here.
  const obs::CauseScope cause("net.link", "send",
                              {{"link", name_},
                               {"kind", to_string(frame.kind)},
                               {"id", frame.id}});

  const bool dup = faults_.duplicate > 0.0 && rng_.bernoulli(faults_.duplicate);
  const int copies = dup ? 2 : 1;
  if (dup) ++counters_.duplicated;
  for (int copy = 0; copy < copies; ++copy) {
    const std::uint32_t slot = pool_.acquire();
    // Copies before the last get their own frame; the last moves it in.
    if (copy + 1 < copies) {
      pool_[slot] = frame;
    } else {
      pool_[slot] = std::move(frame);
    }
    ++in_flight_;
    auto arrival = [this, slot] { deliver(slot); };
    static_assert(sim::Simulator::fits_inline<decltype(arrival)>,
                  "link delivery must schedule allocation-free");
    sim_.schedule_in(draw_delay(), std::move(arrival));
  }
  return true;
}

void Link::deliver(std::uint32_t slot) {
  // The frame stays parked in its slot through delivery: the receiver takes
  // it by rvalue and moves out only what it keeps, and the slot — with
  // whatever string capacity remains — is recycled afterwards, so
  // steady-state traffic never allocates.  Release happens after the
  // receiver returns: a receiver that re-sends on this link must not be
  // handed the very slot it is still reading.
  Frame& frame = pool_[slot];
  --in_flight_;
  if (!receiver_) {
    note_drop(frame, "no-receiver");
    pool_.release(slot);
    return;
  }
  ++counters_.delivered;
  AFT_METRIC_ADD("net.link.delivered", 1);
  AFT_TRACE("net.link", "deliver",
            {{"link", name_},
             {"kind", to_string(frame.kind)},
             {"id", frame.id}});
  receiver_(std::move(frame));
  pool_.release(slot);
}

void Link::partition() {
  if (partitioned_) return;
  partitioned_ = true;
  AFT_METRIC_ADD("net.link.partitions", 1);
  AFT_TRACE("net.link", "partition", {{"link", name_}});
}

void Link::heal() {
  if (!partitioned_) return;
  partitioned_ = false;
  AFT_TRACE("net.link", "heal", {{"link", name_}});
}

}  // namespace aft::net
