// Tests for the ACCADA-like middleware substrate: components, the
// reflective DAG, the event bus, and architecture execution.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/component.hpp"
#include "arch/dag.hpp"
#include "arch/event_bus.hpp"
#include "arch/middleware.hpp"

#if !defined(AFT_OBS_DISABLED)
#include "obs/obs.hpp"
#endif

namespace {

using namespace aft::arch;

// --- ScriptedComponent --------------------------------------------------------

TEST(ScriptedComponentTest, IdentityDefault) {
  ScriptedComponent c("c1");
  const auto r = c.process(42);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 42);
  EXPECT_EQ(c.invocations(), 1u);
  EXPECT_EQ(c.failures(), 0u);
}

TEST(ScriptedComponentTest, CustomFunction) {
  ScriptedComponent c("dbl", [](std::int64_t v) { return v * 2; });
  EXPECT_EQ(c.process(21).value, 42);
}

TEST(ScriptedComponentTest, TransientFailures) {
  ScriptedComponent c("c");
  c.fail_next(2);
  EXPECT_FALSE(c.process(1).ok);
  EXPECT_FALSE(c.process(1).ok);
  EXPECT_TRUE(c.process(1).ok);
  EXPECT_EQ(c.failures(), 2u);
}

TEST(ScriptedComponentTest, PermanentFaultAndRepair) {
  ScriptedComponent c("c");
  c.fail_always();
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(c.process(0).ok);
  EXPECT_TRUE(c.permanently_faulty());
  c.repair();
  EXPECT_TRUE(c.process(0).ok);
}

TEST(ScriptedComponentTest, CorruptionChangesValueSilently) {
  ScriptedComponent c("c");
  c.corrupt_next(1, 100);
  const auto r = c.process(5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 105);
  EXPECT_EQ(c.process(5).value, 5);
}

// --- ReflectiveDag -------------------------------------------------------------

DagSnapshot chain(const std::string& name) {
  return DagSnapshot{name,
                     {"c1", "c2", "c3", "c4"},
                     {{"c1", "c2"}, {"c2", "c3"}, {"c3", "c4"}}};
}

TEST(DagTest, ValidateRejectsMalformedSnapshots) {
  EXPECT_NE(ReflectiveDag::validate(
                DagSnapshot{"bad", {"a", "a"}, {}}),
            "");
  EXPECT_NE(ReflectiveDag::validate(
                DagSnapshot{"bad", {"a"}, {{"a", "ghost"}}}),
            "");
  EXPECT_NE(ReflectiveDag::validate(
                DagSnapshot{"bad", {"a", "b"}, {{"a", "b"}, {"b", "a"}}}),
            "");
  EXPECT_EQ(ReflectiveDag::validate(chain("ok")), "");
}

TEST(DagTest, InjectRejectsCycle) {
  ReflectiveDag dag;
  EXPECT_THROW(dag.inject(DagSnapshot{"c", {"a", "b"}, {{"a", "b"}, {"b", "a"}}}),
               std::invalid_argument);
  EXPECT_TRUE(dag.empty());
}

TEST(DagTest, TopologicalOrderOfChain) {
  ReflectiveDag dag;
  dag.inject(chain("D1"));
  EXPECT_EQ(dag.topological_order(),
            (std::vector<std::string>{"c1", "c2", "c3", "c4"}));
  EXPECT_EQ(dag.sources(), std::vector<std::string>{"c1"});
  EXPECT_EQ(dag.sinks(), std::vector<std::string>{"c4"});
  EXPECT_EQ(dag.predecessors("c3"), std::vector<std::string>{"c2"});
  EXPECT_EQ(dag.successors("c3"), std::vector<std::string>{"c4"});
  EXPECT_TRUE(dag.has_node("c2"));
  EXPECT_FALSE(dag.has_node("zz"));
}

TEST(DagTest, DiamondTopology) {
  ReflectiveDag dag;
  dag.inject(DagSnapshot{"diamond",
                         {"s", "l", "r", "t"},
                         {{"s", "l"}, {"s", "r"}, {"l", "t"}, {"r", "t"}}});
  const auto order = dag.topological_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "s");
  EXPECT_EQ(order.back(), "t");
  EXPECT_EQ(dag.predecessors("t").size(), 2u);
}

TEST(DagTest, InjectionBumpsVersionAndRenames) {
  ReflectiveDag dag;
  dag.inject(chain("D1"));
  EXPECT_EQ(dag.version(), 1u);
  EXPECT_EQ(dag.snapshot_name(), "D1");
  dag.inject(chain("D2"));
  EXPECT_EQ(dag.version(), 2u);
  EXPECT_EQ(dag.snapshot_name(), "D2");
}

TEST(DagTest, DiffShowsFig3Transition) {
  // Fig. 3: D1 has c3 (redoing); D2 replaces it with c3.1 primary +
  // c3.2 secondary.
  const DagSnapshot d1 = chain("D1");
  const DagSnapshot d2{"D2",
                       {"c1", "c2", "c3.1", "c3.2", "c4"},
                       {{"c1", "c2"},
                        {"c2", "c3.1"},
                        {"c3.1", "c4"},
                        {"c2", "c3.2"},
                        {"c3.2", "c4"}}};
  const std::string diff = ReflectiveDag::diff(d1, d2);
  EXPECT_NE(diff.find("+ node c3.1"), std::string::npos);
  EXPECT_NE(diff.find("+ node c3.2"), std::string::npos);
  EXPECT_NE(diff.find("- node c3"), std::string::npos);
  EXPECT_NE(diff.find("transition D1 -> D2"), std::string::npos);
}

// --- EventBus ------------------------------------------------------------------

TEST(EventBusTest, TopicDelivery) {
  EventBus bus;
  int a_count = 0, b_count = 0;
  bus.subscribe("a", [&](const Message&) { ++a_count; });
  bus.subscribe("b", [&](const Message&) { ++b_count; });
  EXPECT_EQ(bus.publish(Message{"a", "src", ""}), 1u);
  EXPECT_EQ(bus.publish(Message{"a", "src", ""}), 1u);
  EXPECT_EQ(bus.publish(Message{"c", "src", ""}), 0u);
  EXPECT_EQ(a_count, 2);
  EXPECT_EQ(b_count, 0);
  EXPECT_EQ(bus.published(), 3u);
}

TEST(EventBusTest, WildcardSeesEverything) {
  EventBus bus;
  std::vector<std::string> topics;
  bus.subscribe_all([&](const Message& m) { topics.push_back(m.topic); });
  bus.publish(Message{"x", "", ""});
  bus.publish(Message{"y", "", ""});
  EXPECT_EQ(topics, (std::vector<std::string>{"x", "y"}));
}

TEST(EventBusTest, UnsubscribeStopsDelivery) {
  EventBus bus;
  int n = 0;
  const auto id = bus.subscribe("t", [&](const Message&) { ++n; });
  bus.publish(Message{"t", "", ""});
  bus.unsubscribe(id);
  bus.publish(Message{"t", "", ""});
  EXPECT_EQ(n, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
}

TEST(EventBusTest, HandlerMaySubscribeDuringDelivery) {
  EventBus bus;
  int late = 0;
  bus.subscribe("t", [&](const Message&) {
    bus.subscribe("t", [&](const Message&) { ++late; });
  });
  bus.publish(Message{"t", "", ""});  // must not crash or deliver to the new sub
  EXPECT_EQ(late, 0);
  bus.publish(Message{"t", "", ""});
  EXPECT_EQ(late, 1);
}

TEST(EventBusTest, UnsubscribeErasesEmptyTopicBuckets) {
  // Subscribe/unsubscribe churn over many distinct topics used to leave one
  // empty vector per topic in the map forever — unbounded growth for a
  // long-lived bus fed by ephemeral components.
  EventBus bus;
  for (int i = 0; i < 100; ++i) {
    const auto id = bus.subscribe("topic-" + std::to_string(i),
                                  [](const Message&) {});
    bus.unsubscribe(id);
  }
  EXPECT_EQ(bus.topic_count(), 0u);
  EXPECT_EQ(bus.subscriber_count(), 0u);

  // A topic with a surviving subscriber keeps its bucket.
  bus.subscribe("keep", [](const Message&) {});
  const auto gone = bus.subscribe("keep", [](const Message&) {});
  bus.unsubscribe(gone);
  EXPECT_EQ(bus.topic_count(), 1u);
}

TEST(EventBusTest, HandlerUnsubscribedDuringDeliveryIsSkipped) {
  // publish() iterates a snapshot; a handler unsubscribed by an *earlier*
  // handler of the same publish used to be invoked anyway — delivery to a
  // subscriber that had already said goodbye.
  EventBus bus;
  int second_calls = 0;
  EventBus::SubscriptionId second_id = 0;
  bus.subscribe("t", [&](const Message&) { bus.unsubscribe(second_id); });
  second_id = bus.subscribe("t", [&](const Message&) { ++second_calls; });
  const std::size_t delivered = bus.publish(Message{"t", "", ""});
  EXPECT_EQ(second_calls, 0);
  EXPECT_EQ(delivered, 1u);
}

TEST(EventBusTest, WildcardUnsubscribedDuringDeliveryIsSkipped) {
  EventBus bus;
  int wildcard_calls = 0;
  EventBus::SubscriptionId wc_id = 0;
  bus.subscribe("t", [&](const Message&) { bus.unsubscribe(wc_id); });
  wc_id = bus.subscribe_all([&](const Message&) { ++wildcard_calls; });
  bus.publish(Message{"t", "", ""});
  EXPECT_EQ(wildcard_calls, 0);
}

TEST(EventBusTest, UnknownIdUnsubscribeIsHarmless) {
  EventBus bus;
  bus.subscribe("t", [](const Message&) {});
  bus.unsubscribe(9999);  // never issued
  EXPECT_EQ(bus.subscriber_count(), 1u);
  EXPECT_EQ(bus.topic_count(), 1u);
}

TEST(EventBusTest, InterningIsIdempotentAndDense) {
  EventBus bus;
  const TopicId a = bus.intern("alpha");
  const TopicId b = bus.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(bus.intern("alpha"), a);
  EXPECT_EQ(bus.find_topic("alpha"), a);
  EXPECT_EQ(bus.find_topic("never-seen"), kNoTopic);
  EXPECT_EQ(bus.topic_name(a), "alpha");
  EXPECT_EQ(bus.topic_name(b), "beta");
  EXPECT_EQ(bus.interned_topics(), 2u);
}

TEST(EventBusTest, PublishByIdMatchesPublishByName) {
  EventBus bus;
  std::vector<std::string> seen;
  bus.subscribe("t", [&](const Message& m) { seen.push_back(m.payload); });
  const TopicId t = bus.find_topic("t");
  ASSERT_NE(t, kNoTopic);
  EXPECT_EQ(bus.publish(Message{"t", "s", "by-name"}), 1u);
  EXPECT_EQ(bus.publish(t, Message{"t", "s", "by-id"}), 1u);
  EXPECT_EQ(seen, (std::vector<std::string>{"by-name", "by-id"}));
}

TEST(EventBusTest, PublishUnknownTopicReachesWildcardWithoutInterning) {
  EventBus bus;
  int wildcard = 0;
  bus.subscribe_all([&](const Message&) { ++wildcard; });
  const std::size_t before = bus.interned_topics();
  EXPECT_EQ(bus.publish(Message{"unseen", "", ""}), 1u);
  EXPECT_EQ(wildcard, 1);
  // Publishing must not grow the topic table: bus memory stays bounded by
  // subscribed topics even under an unbounded stream of novel topic names.
  EXPECT_EQ(bus.interned_topics(), before);
  EXPECT_EQ(bus.find_topic("unseen"), kNoTopic);
}

TEST(EventBusTest, PublishBatchDeliversPerMessageInOrder) {
  EventBus bus;
  std::vector<std::string> log;
  bus.subscribe("t", [&](const Message& m) { log.push_back("t:" + m.payload); });
  bus.subscribe_all([&](const Message& m) { log.push_back("*:" + m.payload); });
  const std::vector<Message> batch = {Message{"t", "", "1"},
                                      Message{"t", "", "2"}};
  const TopicId t = bus.find_topic("t");
  // Topic subscribers then wildcard, per message — same order as publish().
  EXPECT_EQ(bus.publish_batch(t, std::span<const Message>(batch)), 4u);
  EXPECT_EQ(log,
            (std::vector<std::string>{"t:1", "*:1", "t:2", "*:2"}));
  EXPECT_EQ(bus.published(), 2u);
}

TEST(EventBusTest, MixedTopicBatchGroupsConsecutiveRuns) {
  EventBus bus;
  std::vector<std::string> log;
  bus.subscribe("a", [&](const Message& m) { log.push_back("a:" + m.payload); });
  bus.subscribe("b", [&](const Message& m) { log.push_back("b:" + m.payload); });
  const std::vector<Message> batch = {
      Message{"a", "", "1"}, Message{"a", "", "2"}, Message{"b", "", "3"},
      Message{"c", "", "4"}, Message{"a", "", "5"}};
  EXPECT_EQ(bus.publish_batch(std::span<const Message>(batch)), 4u);
  EXPECT_EQ(log, (std::vector<std::string>{"a:1", "a:2", "b:3", "a:5"}));
  EXPECT_EQ(bus.published(), 5u);
}

TEST(EventBusTest, HandlerSubscribedMidBatchSeesNoneOfTheBatch) {
  EventBus bus;
  int late = 0;
  bus.subscribe("t", [&](const Message&) {
    bus.subscribe("t", [&](const Message&) { ++late; });
  });
  const std::vector<Message> batch = {Message{"t", "", ""},
                                      Message{"t", "", ""}};
  bus.publish_batch(bus.find_topic("t"), std::span<const Message>(batch));
  EXPECT_EQ(late, 0);  // the batch is one publish for churn purposes
  bus.publish(Message{"t", "", ""});
  EXPECT_EQ(late, 2);  // both late subscribers (one per batch message) live now
}

TEST(EventBusTest, HandlerUnsubscribedMidBatchSkipsRestOfBatch) {
  EventBus bus;
  int second_calls = 0;
  EventBus::SubscriptionId second_id = 0;
  bool fired = false;
  bus.subscribe("t", [&](const Message&) {
    if (!fired) {
      fired = true;
      bus.unsubscribe(second_id);
    }
  });
  second_id = bus.subscribe("t", [&](const Message&) { ++second_calls; });
  const std::vector<Message> batch = {Message{"t", "", ""},
                                      Message{"t", "", ""}};
  bus.publish_batch(bus.find_topic("t"), std::span<const Message>(batch));
  EXPECT_EQ(second_calls, 0);
}

TEST(EventBusTest, HandlerMayUnsubscribeItself) {
  EventBus bus;
  int calls = 0;
  EventBus::SubscriptionId self = 0;
  self = bus.subscribe("t", [&](const Message&) {
    ++calls;
    bus.unsubscribe(self);  // destroys this handler only after it returns
  });
  bus.publish(Message{"t", "", ""});
  bus.publish(Message{"t", "", ""});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bus.subscriber_count(), 0u);
  EXPECT_EQ(bus.topic_count(), 0u);
}

TEST(EventBusTest, NestedPublishAlsoDefersMidPublishSubscribers) {
  // The tables freeze while *any* publish is on the stack, so a handler
  // subscribed during publish A is not delivered by a publish B nested
  // inside A either — churn applies when the outermost publish unwinds.
  EventBus bus;
  int late = 0;
  bool nested_done = false;
  bus.subscribe("outer", [&](const Message&) {
    bus.subscribe("inner", [&](const Message&) { ++late; });
    bus.publish(Message{"inner", "", ""});
    nested_done = true;
  });
  bus.publish(Message{"outer", "", ""});
  EXPECT_TRUE(nested_done);
  EXPECT_EQ(late, 0);
  bus.publish(Message{"inner", "", ""});
  EXPECT_EQ(late, 1);
}

#if !defined(AFT_OBS_DISABLED)
TEST(EventBusTest, ThrowingSubscriberLeavesTheCauseAsItWas) {
  // The publish record is the current cause only while its deliveries run:
  // a subscriber that throws must not leave it installed for whatever the
  // caller does next.
  aft::obs::TraceSink sink;
  aft::obs::ScopedObs scope(&sink, nullptr);
  EventBus bus;
  bus.subscribe("t", [](const Message&) {
    throw std::runtime_error("subscriber failed");
  });
  const Message batch[] = {Message{"t", "", ""}, Message{"t", "", ""}};
  const aft::obs::EventId ambient = sink.emit("test", "ambient");
  for (const aft::obs::EventId before : {aft::obs::kNoEvent, ambient}) {
    sink.set_cause(before);
    EXPECT_THROW(bus.publish(Message{"t", "", ""}), std::runtime_error);
    EXPECT_EQ(sink.cause(), before);
    EXPECT_THROW(bus.publish_batch(batch), std::runtime_error);
    EXPECT_EQ(sink.cause(), before);
  }
}
#endif

TEST(MessageArenaTest, RecyclesSlotsAndClearsFields) {
  MessageArena arena;
  const auto s1 = arena.acquire();
  arena[s1] = Message{"topic", "source", "payload"};
  EXPECT_EQ(arena.in_use(), 1u);
  arena.release(s1);
  EXPECT_EQ(arena.in_use(), 0u);
  const std::size_t cap = arena.capacity();

  // LIFO recycling hands the same slot back, fields cleared.
  const auto s2 = arena.acquire();
  EXPECT_EQ(s2, s1);
  EXPECT_TRUE(arena[s2].topic.empty());
  EXPECT_TRUE(arena[s2].source.empty());
  EXPECT_TRUE(arena[s2].payload.empty());
  EXPECT_EQ(arena.capacity(), cap);
  arena.release(s2);
}

// --- Middleware -----------------------------------------------------------------

std::shared_ptr<ScriptedComponent> add_component(Middleware& mw,
                                                 const std::string& id) {
  auto c = std::make_shared<ScriptedComponent>(
      id, [](std::int64_t v) { return v + 1; });
  mw.register_component(c);
  return c;
}

TEST(MiddlewareTest, DuplicateAndNullComponentRejected) {
  Middleware mw;
  add_component(mw, "c1");
  EXPECT_THROW(mw.register_component(std::make_shared<ScriptedComponent>("c1")),
               std::invalid_argument);
  EXPECT_THROW(mw.register_component(nullptr), std::invalid_argument);
}

TEST(MiddlewareTest, DeployRequiresRegisteredComponents) {
  Middleware mw;
  add_component(mw, "c1");
  EXPECT_THROW(mw.deploy(DagSnapshot{"D", {"c1", "ghost"}, {{"c1", "ghost"}}}),
               std::invalid_argument);
}

TEST(MiddlewareTest, ChainExecutionAddsOnePerStage) {
  Middleware mw;
  for (const auto* id : {"c1", "c2", "c3"}) add_component(mw, id);
  mw.deploy(DagSnapshot{"D", {"c1", "c2", "c3"}, {{"c1", "c2"}, {"c2", "c3"}}});
  const auto r = mw.run(10);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 13);
  EXPECT_EQ(mw.runs(), 1u);
  EXPECT_EQ(mw.failed_runs(), 0u);
}

TEST(MiddlewareTest, DiamondSumsPredecessors) {
  Middleware mw;
  for (const auto* id : {"s", "l", "r", "t"}) add_component(mw, id);
  mw.deploy(DagSnapshot{"D",
                        {"s", "l", "r", "t"},
                        {{"s", "l"}, {"s", "r"}, {"l", "t"}, {"r", "t"}}});
  // s: 1 -> 2; l,r: 2 -> 3 each; t: 3+3=6 -> 7.
  const auto r = mw.run(1);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 7);
}

TEST(MiddlewareTest, FaultIsPublishedAndRunFails) {
  Middleware mw;
  add_component(mw, "c1");
  auto c2 = add_component(mw, "c2");
  mw.deploy(DagSnapshot{"D", {"c1", "c2"}, {{"c1", "c2"}}});

  std::vector<std::string> faulty_sources;
  mw.bus().subscribe(kFaultTopic, [&](const Message& m) {
    faulty_sources.push_back(m.source);
  });
  c2->fail_next(1);
  const auto r = mw.run(0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.component_failures, 1u);
  EXPECT_EQ(faulty_sources, std::vector<std::string>{"c2"});
  EXPECT_EQ(mw.failed_runs(), 1u);
  // Recovered next run.
  EXPECT_TRUE(mw.run(0).ok);
}

TEST(MiddlewareTest, EmptyArchitectureFails) {
  Middleware mw;
  EXPECT_FALSE(mw.run(0).ok);
}

TEST(MiddlewareTest, RedeployReshapesLiveSystem) {
  Middleware mw;
  for (const auto* id : {"c1", "c2", "c3"}) add_component(mw, id);
  mw.deploy(DagSnapshot{"D1", {"c1", "c2"}, {{"c1", "c2"}}});
  EXPECT_EQ(mw.run(0).value, 2);
  mw.deploy(DagSnapshot{"D2", {"c1", "c2", "c3"},
                        {{"c1", "c2"}, {"c2", "c3"}}});
  EXPECT_EQ(mw.run(0).value, 3);
  EXPECT_EQ(mw.dag().snapshot_name(), "D2");
  EXPECT_EQ(mw.dag().version(), 2u);
}

}  // namespace

// --- Degraded-mode execution --------------------------------------------------------

namespace {

TEST(MiddlewareDegradedTest, PassThroughSubstitutionKeepsTheRunAlive) {
  Middleware mw;
  for (const auto* id : {"c1", "c2", "c3"}) add_component(mw, id);
  mw.deploy(DagSnapshot{"D", {"c1", "c2", "c3"}, {{"c1", "c2"}, {"c2", "c3"}}});
  auto c2 = std::dynamic_pointer_cast<ScriptedComponent>(mw.lookup("c2"));
  ASSERT_NE(c2, nullptr);
  c2->fail_next(1);
  const auto r = mw.run(10, Middleware::FailurePolicy::kDegradedValue);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.component_failures, 1u);
  // c1: 10->11; c2 degraded: passes 11 through; c3: 11->12.
  EXPECT_EQ(r.value, 12);
  ASSERT_EQ(r.trace.size(), 3u);
  EXPECT_EQ(r.trace[1].first, "c2 [degraded]");
}

TEST(MiddlewareDegradedTest, CleanRunIsNotMarkedDegraded) {
  Middleware mw;
  add_component(mw, "c1");
  mw.deploy(DagSnapshot{"D", {"c1"}, {}});
  const auto r = mw.run(1, Middleware::FailurePolicy::kDegradedValue);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.degraded);
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0], (std::pair<std::string, std::int64_t>{"c1", 2}));
}

TEST(MiddlewareDegradedTest, FaultStillPublishedInDegradedMode) {
  Middleware mw;
  add_component(mw, "c1");
  mw.deploy(DagSnapshot{"D", {"c1"}, {}});
  int faults = 0;
  mw.bus().subscribe(kFaultTopic, [&](const Message&) { ++faults; });
  auto c1 = std::dynamic_pointer_cast<ScriptedComponent>(mw.lookup("c1"));
  c1->fail_next(1);
  const auto r = mw.run(5, Middleware::FailurePolicy::kDegradedValue);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(faults, 1);  // degraded continuation never hides the fault
}

}  // namespace
