// Steady-state allocation audits.  This binary overrides the global
// operator new/delete with counting versions (tests/CMakeLists.txt builds
// one executable per test file, so the override is confined to this TU's
// process) and asserts the hot loops the perf PRs optimise are genuinely
// allocation-free once warm:
//
//   * sim::Simulator schedule/dispatch with in-tree-shaped continuations
//     (InlineFn continuations in the two-tier queue's slot pool), including
//     the open-loop shape of thousands of long timers parked in the far
//     tier beside short-delay traffic,
//   * arch::EventBus publish and publish_batch over interned topics,
//     plus MessageArena slot recycling,
//   * net::Link frame send -> deliver through the recycled slot pool,
//   * net::Membership heartbeat windows with member names too long for
//     the small-string buffer,
//   * vote::VotingFarm::invoke round after round, including after an
//     arity resize and split rounds after agreeing ones, and
//     vote::majority_vote of a span some value wins,
//   * mem::EccScrubAccess batched patrol scrub (read_block + bit-sliced
//     syndrome check + scalar decode of the flagged words), including
//     rounds that take the repair path and bursts with every word flipped.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/event_bus.hpp"
#include "cluster/replica.hpp"
#include "hw/memory_chip.hpp"
#include "load/traffic.hpp"
#include "mem/method_ecc.hpp"
#include "net/link.hpp"
#include "net/membership.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "vote/voting_farm.hpp"

namespace {
std::uint64_t g_news = 0;  // single-threaded tests; plain counters suffice
std::uint64_t g_new_bytes = 0;
}  // namespace

// Out of line, all of them: GCC 12 reports -Wmismatched-new-delete
// wherever inlining exposes malloc() on one side of a new/delete pair and
// not the other.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_news;
  g_new_bytes += size;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

/// Counts global operator-new calls made by `body()`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_news;
  body();
  return g_news - before;
}

TEST(AllocTest, CountingHookIsLive) {
  // Sanity: the override actually intercepts allocations in this binary.
  // A plain new-expression won't do — the optimizer may elide it — but a
  // direct operator-new call and a capacity-forcing vector may not be.
  const std::uint64_t n = allocations_during([] {
    void* p = ::operator new(32);
    ::operator delete(p);
    std::vector<int> v;
    v.reserve(1000);
    v.push_back(1);
  });
  EXPECT_GE(n, 2u);
}

TEST(AllocTest, SimulatorSteadyStateIsAllocationFree) {
  aft::sim::Simulator sim;
  std::uint64_t fired = 0;

  // Warm-up: grow the slot pool past the working set.
  for (int i = 0; i < 256; ++i) {
    sim.schedule_in(static_cast<aft::sim::SimTime>(i % 17),
                    [&fired] { ++fired; });
  }
  sim.run_all();

  // Steady state: schedule and dispatch with a 48-byte capture holding a
  // std::string (this + string + counter).  A short string stays in its
  // SSO buffer, so the whole shape is allocation-free end to end; a long
  // one would allocate on every copy, which is why no in-tree
  // continuation carries a name.
  struct Shape {
    std::uint64_t* fired;
    std::string channel;
    std::uint64_t epoch;
    void operator()() const { ++*fired; }
  };
  static_assert(aft::sim::Simulator::fits_inline<Shape>);
  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t round = 0; round < 1000; ++round) {
      for (int i = 0; i < 64; ++i) {
        sim.schedule_in(static_cast<aft::sim::SimTime>(i % 5),
                        Shape{&fired, "svc", round});
      }
      sim.run_all();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 256u + 1000u * 64u);
}

TEST(AllocTest, SelfReschedulingDaemonMeshIsAllocationFree) {
  // The fig6/fig7 shape: periodic daemons that re-arm themselves from
  // inside their own dispatch.  Re-arming schedules while the pool is at its
  // high-water mark, so after one warm cycle no growth can occur.
  aft::sim::Simulator sim;
  struct Daemon {
    aft::sim::Simulator* sim;
    aft::sim::SimTime period;
    std::uint64_t fires = 0;
    void arm() {
      auto chain = [this] {
        ++fires;
        arm();
      };
      static_assert(aft::sim::Simulator::fits_inline<decltype(chain)>);
      sim->schedule_in(period, std::move(chain));
    }
  };
  std::vector<Daemon> mesh;
  mesh.reserve(32);
  for (std::uint64_t d = 0; d < 32; ++d) {
    mesh.push_back(Daemon{&sim, 1 + d % 7, 0});
    mesh.back().arm();
  }
  sim.run_until(100);  // warm-up: queue reaches its steady high-water mark

  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(10'000); });
  EXPECT_EQ(allocs, 0u);
  std::uint64_t total = 0;
  for (const Daemon& d : mesh) total += d.fires;
  EXPECT_GT(total, 32u * 1000u);
}

TEST(AllocTest, OpenLoopTimerShapeIsAllocationFree) {
  // The front door's shape under open-loop traffic: every arrival parks a
  // 5000-tick client deadline timer (far tier) and sets off a chain of
  // short hops (near tier), and most deadlines fire long after their
  // request completed.  One arrival per 2 ticks keeps ~2.5k timers parked.
  constexpr aft::sim::SimTime kDeadline = 5000;
  static_assert(kDeadline >= aft::sim::Simulator::kWindow);
  aft::sim::Simulator sim;
  std::uint64_t expired = 0;
  std::uint64_t hops = 0;
  struct Deadline {
    std::uint64_t* expired;
    std::string channel;
    std::uint64_t request;
    void operator()() const { ++*expired; }
  };
  struct Hop {
    aft::sim::Simulator* sim;
    std::uint64_t* hops;
    std::uint64_t left;
    void operator()() const {
      ++*hops;
      if (left > 0) sim->schedule_in(1 + left % 8, Hop{sim, hops, left - 1});
    }
  };
  struct Arrivals {
    aft::sim::Simulator* sim;
    std::uint64_t* expired;
    std::uint64_t* hops;
    std::uint64_t next = 0;
    void arm() {
      auto arrive = [this] {
        sim->schedule_in(kDeadline, Deadline{expired, "svc", next++});
        sim->schedule_in(1, Hop{sim, hops, 12});
        arm();
      };
      static_assert(aft::sim::Simulator::fits_inline<decltype(arrive)>);
      sim->schedule_in(2, std::move(arrive));
    }
  };
  static_assert(aft::sim::Simulator::fits_inline<Deadline>);
  static_assert(aft::sim::Simulator::fits_inline<Hop>);
  Arrivals arrivals{&sim, &expired, &hops};
  arrivals.arm();
  sim.run_until(3 * kDeadline);  // warm-up: pool and far heap at their peak
  EXPECT_GE(sim.pending(), 2400u);

  const std::uint64_t expired_before = expired;
  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(6 * kDeadline); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(sim.pending(), 2400u);
  EXPECT_EQ(expired - expired_before, 3 * kDeadline / 2);
  EXPECT_GT(hops, 12u * expired);
}

TEST(AllocTest, ScheduleAndCancelSteadyStateIsAllocationFree) {
  // The RPC shape with cancellable timers: every arrival arms a near
  // attempt deadline and a far client deadline, and its reply, two ticks
  // later, cancels both.  Near cancels free their slots at once; far ones
  // leave tombstones that are popped, never dispatched.
  constexpr aft::sim::SimTime kNear = 15;
  constexpr aft::sim::SimTime kFar = 5000;
  static_assert(kNear < aft::sim::Simulator::kWindow);
  static_assert(kFar >= aft::sim::Simulator::kWindow);
  aft::sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t replies = 0;
  struct Arrivals {
    aft::sim::Simulator* sim;
    std::uint64_t* fired;
    std::uint64_t* replies;
    void arm() {
      auto arrive = [this] {
        const auto near = sim->schedule_in(kNear, [f = fired] { ++*f; });
        const auto far = sim->schedule_in(kFar, [f = fired] { ++*f; });
        sim->schedule_in(2, [s = sim, r = replies, near, far] {
          ++*r;
          s->cancel(near);
          s->cancel(far);
        });
        arm();
      };
      static_assert(aft::sim::Simulator::fits_inline<decltype(arrive)>);
      sim->schedule_in(1, std::move(arrive));
    }
  };
  Arrivals arrivals{&sim, &fired, &replies};
  arrivals.arm();
  sim.run_until(3 * kFar);  // warm-up: pool and far heap at their peak

  const std::uint64_t executed_before = sim.executed();
  const std::uint64_t replies_before = replies;
  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(6 * kFar); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 0u);  // every deadline was cancelled
  EXPECT_EQ(replies - replies_before, 3 * kFar);
  // Only arrivals and replies dispatch: no deadline, live or cancelled.
  EXPECT_EQ(sim.executed() - executed_before, 2 * 3 * kFar);
}

TEST(AllocTest, EventBusPublishSteadyStateIsAllocationFree) {
  // The interned SoA bus: once topics are interned and buckets sized, a
  // publish is an array walk — no string-keyed map lookup materializes
  // nodes, no handler snapshot vector, no std::function copies.
  aft::arch::EventBus bus;
  std::uint64_t delivered = 0;
  for (int s = 0; s < 4; ++s) {
    bus.subscribe("mesh", [&delivered](const aft::arch::Message&) {
      ++delivered;
    });
  }
  bus.subscribe_all([&delivered](const aft::arch::Message&) { ++delivered; });
  const aft::arch::Message msg{"mesh", "src", "beat"};
  bus.publish(msg);  // warm-up

  const aft::arch::TopicId topic = bus.find_topic("mesh");
  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 10000; ++i) bus.publish(msg);
    for (int i = 0; i < 10000; ++i) bus.publish(topic, msg);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 5u * 20001u);
}

TEST(AllocTest, EventBusPublishBatchIsAllocationFree) {
  aft::arch::EventBus bus;
  std::uint64_t delivered = 0;
  bus.subscribe("mesh", [&delivered](const aft::arch::Message&) {
    ++delivered;
  });
  std::vector<aft::arch::Message> batch(64);
  for (auto& m : batch) m = aft::arch::Message{"mesh", "src", "beat"};
  const aft::arch::TopicId topic = bus.find_topic("mesh");
  bus.publish_batch(topic, std::span<const aft::arch::Message>(batch));

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      bus.publish_batch(topic, std::span<const aft::arch::Message>(batch));
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 64u * 1001u);
}

TEST(AllocTest, MessageArenaRecycledSlotsKeepStringCapacity) {
  aft::arch::MessageArena arena;
  const std::string long_payload(100, 'x');  // far past any SSO buffer

  // Warm-up: one acquire/fill/release cycle grows the slot's strings.
  {
    const auto slot = arena.acquire();
    arena[slot].topic = "mesh";
    arena[slot].payload = long_payload;
    arena.release(slot);
  }

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      const auto slot = arena.acquire();
      arena[slot].topic = "mesh";
      arena[slot].payload = long_payload;  // fits the retained capacity
      arena.release(slot);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(arena.capacity(), 1u);
}

TEST(AllocTest, LinkFrameSendSteadyStateIsAllocationFree) {
  // One send parks the frame in a recycled pool slot and schedules an
  // inline delivery continuation; with SSO-sized strings the whole
  // send -> deliver -> receiver path must not touch the allocator.
  aft::sim::Simulator sim;
  aft::net::Link link(sim, "a->b", aft::net::LinkFaults{}, 77);
  std::uint64_t received = 0;
  link.set_receiver([&received](aft::net::Frame&&) { ++received; });

  aft::net::Frame frame;
  frame.kind = aft::net::FrameKind::kHeartbeat;
  frame.method = "beat";
  frame.origin = "node-a";
  link.send(frame);  // warm-up: pool + queue growth
  sim.run_all();

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 5000; ++i) {
      frame.id = static_cast<std::uint64_t>(i);
      link.send(frame);
      sim.run_all();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(received, 5001u);
}

TEST(AllocTest, VotingFarmSteadyStateIsAllocationFree) {
  aft::vote::VotingFarm farm(
      7, [](aft::vote::Ballot input, std::size_t replica) {
        // One dissenter per round keeps the vote non-trivial.
        return replica == 3 ? input + 1 : input;
      });
  (void)farm.invoke(0);  // warm-up sizes ballots_ and scratch_

  const std::uint64_t allocs = allocations_during([&] {
    for (aft::vote::Ballot round = 1; round <= 2000; ++round) {
      const aft::vote::RoundReport report = farm.invoke(round);
      ASSERT_TRUE(report.success);
      ASSERT_EQ(report.value, round);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(farm.last_ballots().size(), 7u);
}

TEST(AllocTest, VotingFarmStaysAllocationFreeAfterResizeDown) {
  aft::vote::VotingFarm farm(
      9, [](aft::vote::Ballot input, std::size_t) { return input; });
  (void)farm.invoke(0);
  farm.resize(5);  // shrink: both buffers keep their 9-slot capacity

  const std::uint64_t allocs = allocations_during([&] {
    for (aft::vote::Ballot round = 1; round <= 500; ++round) {
      const aft::vote::RoundReport report = farm.invoke(round);
      ASSERT_TRUE(report.success);
      ASSERT_EQ(report.n, 5u);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(farm.last_ballots().size(), 5u);
}

TEST(AllocTest, VotingFarmSplitRoundsAfterAgreeingWarmUpAreAllocationFree) {
  // An agreeing round never touches the farm's sort workspace, so a farm
  // warmed up only on unanimous rounds must still have it sized: its first
  // split rounds, also at a lower arity within capacity, allocate nothing.
  bool split = false;
  aft::vote::VotingFarm farm(
      9, [&split](aft::vote::Ballot input, std::size_t replica) {
        return split ? input + static_cast<aft::vote::Ballot>(replica) : input;
      });
  for (aft::vote::Ballot round = 0; round < 10; ++round) (void)farm.invoke(round);
  aft::vote::VotingFarm tallier(9);
  const std::vector<aft::vote::Ballot> agreeing(9, 5);
  for (int round = 0; round < 10; ++round) (void)tallier.tally(agreeing);
  const std::vector<aft::vote::Ballot> distinct{9, 8, 7, 6, 5, 4, 3, 2, 1};

  split = true;
  const std::uint64_t allocs = allocations_during([&] {
    for (const std::size_t arity : {9u, 5u, 7u, 9u}) {
      farm.resize(arity);
      tallier.resize(arity);
      for (aft::vote::Ballot round = 0; round < 100; ++round) {
        ASSERT_FALSE(farm.invoke(round).success);
        ASSERT_FALSE(tallier.tally(distinct).success);
        ASSERT_TRUE(tallier.tally(agreeing).success);
      }
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(farm.failures(), 400u);
  EXPECT_EQ(tallier.failures(), 400u);
}

TEST(AllocTest, MajorityVoteOfAnAgreeingSpanIsAllocationFree) {
  // NVersionComponent and TimeRedundancy vote through the copying
  // majority_vote(span) every call; a round some value wins by strict
  // majority is decided without the copy.
  std::array<aft::vote::Ballot, 15> ballots{};
  const std::uint64_t allocs = allocations_during([&] {
    ASSERT_EQ(aft::vote::majority_vote({}).n, 0u);
    for (std::size_t n = 1; n <= ballots.size(); ++n) {
      const std::span<const aft::vote::Ballot> round(ballots.data(), n);
      ballots.fill(7);
      ASSERT_EQ(aft::vote::majority_vote(round).agreeing, n);
      // The largest minority 7 still outvotes, leading the round.
      const std::size_t minority = (n - 1) / 2;
      for (std::size_t r = 0; r < minority; ++r) {
        ballots[r] = 100 + static_cast<aft::vote::Ballot>(r);
      }
      const aft::vote::VoteOutcome outcome = aft::vote::majority_vote(round);
      ASSERT_TRUE(outcome.has_majority);
      ASSERT_EQ(outcome.winner, 7);
      ASSERT_EQ(outcome.dissent, minority);
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocTest, MetricsObserveSteadyStateIsAllocationFree) {
  // The PR-8 quantile plane: feeding a pre-registered histogram-backed
  // stat is a Welford update plus a LogHistogram bucket increment — no
  // node materialization, no string temporaries (the registry's maps are
  // std::less<> keyed, so string_view lookups stay heterogeneous).
  aft::obs::MetricsRegistry reg;
  aft::obs::Stat& lat = reg.stat("net.rpc.latency.ok");  // hoisted handle

  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      lat.add(static_cast<double>(1 + i % 4096));
      if (i % 16 == 0) reg.observe("net.rpc.latency.ok", 7.0);  // by name
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(lat.count(), 100'000u + 100'000u / 16u);
}

TEST(AllocTest, TimelineRolloverIsAllocationFree) {
  // Rolling the live window into the finalized store compresses the
  // non-zero bucket range into the arena; after reserve() both the window
  // vector and the arena are pre-sized, so steady-state rollover (the
  // per-window path a long campaign run exercises thousands of times)
  // never touches the heap.
  aft::obs::MetricsRegistry reg;
  aft::obs::Timeline& tl = reg.timeline("lat", /*window_ticks=*/10);
  // Bounded-magnitude samples (1..63) span at most two majors' worth of
  // buckets; 96 per-window bucket slots is comfortably enough.
  tl.reserve(/*windows=*/1200, /*buckets_per_window=*/96);
  aft::obs::Stat& lat = reg.stat("lat");

  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t t = 0; t < 10'000; ++t) {
      aft::obs::set_obs_time(t);
      lat.add(static_cast<double>(1 + (t * 7) % 63));
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_FALSE(tl.empty());
  // Every window rolled: 1000 finalized + the live one.
  EXPECT_EQ(tl.snapshot().size(), 1000u);
}

TEST(AllocTest, BatchScrubSteadyStateIsAllocationFree) {
  // The batched EccScrubAccess::scrub_step (read_block + bit-sliced
  // ecc_check_batch + scalar ecc_decode and write-back of the flagged
  // words) works entirely out of stack
  // buffers: once the chip exists, patrol scrubbing — including passes that
  // actually correct injected flips through the repair path — must never
  // touch the heap.
  aft::hw::MemoryChip chip(1024);
  aft::mem::EccScrubAccess method(chip, /*words_per_scrub_step=*/700);
  for (std::size_t w = 0; w < 1024; ++w) method.write(w, w * 0x9E3779B97F4A7C15ULL);
  chip.inject_bit_flip(3, 7);
  method.scrub_step();  // warm (also proves the repair write-back path runs)
  ASSERT_GE(method.stats().corrected_singles, 1u);

  const std::uint64_t allocs = allocations_during([&] {
    for (unsigned round = 0; round < 200; ++round) {
      // Fresh latent flips each round keep the dirty-block repair path hot;
      // step 700 on 1024 words also exercises the wrap seam repeatedly.
      chip.inject_bit_flip((round * 37u) % 1024u, round % 72u);
      method.scrub_step();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(method.stats().corrected_singles, 150u);  // most rounds corrected
}

TEST(AllocTest, ScrubOfAFullyFlippedBurstIsAllocationFree) {
  // The dense limit of the patrol scrub: every word of every burst carries
  // a single flip, so each one goes through the scalar decoder and a
  // write-back.  That path too stays off the heap once warm.
  constexpr std::size_t kWords = 1024;
  constexpr std::size_t kStep = 256;
  aft::hw::MemoryChip chip(kWords);
  aft::mem::EccScrubAccess method(chip, kStep);
  for (std::size_t w = 0; w < kWords; ++w) method.write(w, w * 0x9E3779B97F4A7C15ULL);
  std::size_t next = 0;
  const auto flip_next_burst = [&](unsigned round) {
    for (std::size_t i = 0; i < kStep; ++i) {
      chip.inject_bit_flip(next + i, (round + static_cast<unsigned>(i)) % 72u);
    }
    next = (next + kStep) % kWords;
  };
  flip_next_burst(0);
  method.scrub_step();  // warm
  ASSERT_EQ(method.stats().corrected_singles, kStep);

  const std::uint64_t allocs = allocations_during([&] {
    for (unsigned round = 1; round <= 40; ++round) {
      flip_next_burst(round);
      method.scrub_step();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(method.stats().corrected_singles, 41 * kStep);
}

TEST(AllocTest, LongMemberNamesKeepHeartbeatWindowsAllocationFree) {
  // Member names longer than the 15-char small-string buffer.  A window's
  // check continuation carries the member id, not the name, and beats go
  // by id too, so the liveness plane stays off the heap whatever the names.
  // (Carrying the name cost one allocation per member per window.)
  aft::sim::Simulator sim;
  aft::net::Membership::Params params;
  params.deadline = 10;
  aft::net::Membership membership(sim, params);
  constexpr std::size_t kMembers = 9;
  for (std::size_t i = 0; i < kMembers; ++i) {
    const std::string name = "datacenter-east/replica-" + std::to_string(i);
    ASSERT_GT(name.size(), 15u);
    ASSERT_EQ(membership.track(name), i);
  }
  struct Beats {
    aft::sim::Simulator* sim;
    aft::net::Membership* membership;
    void arm() {
      auto beat = [this] {
        for (std::size_t i = 0; i < kMembers; ++i) membership->beat(i);
        arm();
      };
      static_assert(aft::sim::Simulator::fits_inline<decltype(beat)>);
      sim->schedule_in(4, std::move(beat));
    }
  };
  Beats beats{&sim, &membership};
  beats.arm();
  sim.run_until(100);  // warm-up: the slot pool reaches its high-water mark

  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(100 + 1000 * params.deadline); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(membership.up_count(), kMembers);
  EXPECT_EQ(membership.downs(), 0u);
}

TEST(AllocTest, OpenLoopTrafficSteadyStateIsAllocationFree) {
  // The whole arrival -> RPC -> vote-round -> completion loop of the
  // open-system traffic plane, including the admission shed path: once the
  // pools (session slots, endpoint call tables, the invoke ring, message
  // arenas) reach their high-water marks, a million-client campaign run
  // costs zero heap traffic per request.
  aft::sim::Simulator sim;
  sim.reserve(512);  // peak backlog is a few dozen; 512 is comfortable slack
  aft::cluster::ClusterParams params;
  params.pool = 5;
  params.wire.to_replica.latency = 2;
  params.wire.to_replica.jitter = 1;
  params.wire.from_replica.latency = 2;
  params.wire.from_replica.jitter = 1;
  params.policy.min_replicas = 3;
  params.policy.max_replicas = 5;
  params.policy.step = 2;
  params.policy.lower_after = 1u << 20;
  params.call.deadline = 15;
  params.call.retry.max_attempts = 2;
  params.call.retry.initial_backoff = 4;
  params.call.retry.max_backoff = 8;
  params.heartbeat_period = 4;
  params.membership.deadline = 10;
  params.admission.queue_limit = 8;
  params.admission.policy = aft::cluster::ShedPolicy::kRejectNewest;
  aft::cluster::ReplicatedService service(
      sim, params,
      [](aft::vote::Ballot input, std::size_t) { return input * 2 + 1; }, 21);

  aft::load::TrafficParams tp;
  tp.clients = 4000;
  tp.warm_gap = 8.0;
  tp.overload_gap = 2.0;
  tp.recovery_gap = 8.0;
  tp.think_mean = 6.0;
  tp.session_cap = 16;
  tp.call.deadline = 2000;
  tp.call.retry.max_attempts = 1;
  aft::load::ClientPopulation population(sim, service, tp, 22);
  service.start();
  population.start();

  // Warm deep into the overload phase (clients 800..3200) so every pool is
  // at its high-water mark before measuring.
  while (population.started_sessions() < 2800 && sim.step()) {
  }
  const std::uint64_t shed_before = service.counters().shed;
  const std::uint64_t rounds_before = service.counters().rounds;

  const std::uint64_t allocs = allocations_during([&] {
    while (population.started_sessions() < 3100 && sim.step()) {
    }
  });
  EXPECT_EQ(allocs, 0u);
  // The measured stretch exercised both outcomes: completed rounds AND
  // admission sheds.
  EXPECT_GT(service.counters().rounds, rounds_before);
  EXPECT_GT(service.counters().shed, shed_before);
}

TEST(AllocTest, TraceSinkBuffersRecordsAtTheirEncodedSize) {
  // A trace sink's memory tracks its file: 100k link-send-shaped records
  // may take at most twice their AFTB bytes plus one record chunk.  A sink
  // that buffered a struct per record and a struct per field would need
  // several times that.
  static const std::string kLink = "coord->replica-0";
  {
    aft::obs::TraceSink warm;  // the thread's flight recorder, for one
    warm.emit("net.link", "send");
  }
  aft::obs::TraceSink sink;
  constexpr std::uint64_t kRecords = 100000;
  const std::uint64_t before = g_new_bytes;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    aft::obs::set_obs_time(i);
    sink.emit("net.link", "send",
              {{"link", kLink}, {"kind", "request"}, {"id", i}});
  }
  const std::uint64_t bytes = g_new_bytes - before;
  const std::size_t encoded = sink.binary().size();
  EXPECT_EQ(sink.size(), kRecords);
  EXPECT_LE(bytes, 2 * encoded + aft::obs::TraceSink::kChunkBytes)
      << bytes << " bytes allocated for " << encoded << " encoded";
}

}  // namespace
