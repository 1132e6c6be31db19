// Tests for stateful components and checkpoint/rollback.
#include <gtest/gtest.h>

#include <memory>

#include "arch/stateful.hpp"
#include "ftpat/checkpoint.hpp"

namespace {

using aft::arch::ScriptedStatefulComponent;
using aft::ftpat::CheckpointRollbackComponent;

// --- ScriptedStatefulComponent ------------------------------------------------------

TEST(StatefulComponentTest, AccumulatesByDefault) {
  ScriptedStatefulComponent acc("acc");
  EXPECT_EQ(acc.process(5).value, 5);
  EXPECT_EQ(acc.process(3).value, 8);
  EXPECT_EQ(acc.snapshot_state(), 8);
  acc.restore_state(100);
  EXPECT_EQ(acc.process(1).value, 101);
}

TEST(StatefulComponentTest, CrashCorruptsState) {
  ScriptedStatefulComponent acc("acc");
  acc.process(10);
  acc.crash_corrupting_next(1, 7);
  EXPECT_FALSE(acc.process(5).ok);
  EXPECT_EQ(acc.snapshot_state(), 17);  // 10 + the half-done 7
}

TEST(StatefulComponentTest, SilentStateCorruption) {
  ScriptedStatefulComponent acc("acc");
  acc.corrupt_state_next(1, 1000);
  const auto r = acc.process(1);
  EXPECT_TRUE(r.ok);                      // reports success...
  EXPECT_EQ(acc.snapshot_state(), 1001);  // ...but the state is poisoned
}

// --- CheckpointRollbackComponent ------------------------------------------------------

TEST(CheckpointTest, NullInnerRejected) {
  EXPECT_THROW(CheckpointRollbackComponent("c", nullptr), std::invalid_argument);
}

TEST(CheckpointTest, CleanPathNoRollbacks) {
  auto acc = std::make_shared<ScriptedStatefulComponent>("acc");
  CheckpointRollbackComponent cr("cr", acc);
  EXPECT_EQ(cr.process(5).value, 5);
  EXPECT_EQ(cr.process(5).value, 10);
  EXPECT_EQ(cr.rollbacks(), 0u);
}

TEST(CheckpointTest, CrashMidStepIsRolledBackAndRedone) {
  auto acc = std::make_shared<ScriptedStatefulComponent>("acc");
  CheckpointRollbackComponent cr("cr", acc);
  cr.process(10);
  acc->crash_corrupting_next(1, 999);
  const auto r = cr.process(5);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 15);  // the corrupted partial update never survived
  EXPECT_EQ(cr.rollbacks(), 1u);
  EXPECT_EQ(acc->snapshot_state(), 15);
}

TEST(CheckpointTest, PlainRedoWouldHaveCompoundedTheCorruption) {
  // Control experiment: WITHOUT rollback, retrying a crash that corrupted
  // state produces a wrong final result — the reason this pattern exists.
  auto acc = std::make_shared<ScriptedStatefulComponent>("acc");
  acc->process(10);
  acc->crash_corrupting_next(1, 999);
  (void)acc->process(5);      // crash, state now 1009
  const auto r = acc->process(5);  // naive redo on corrupted state
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 1014);   // ok-looking, silently wrong (should be 15)
}

TEST(CheckpointTest, AcceptanceTestTriggersRollback) {
  auto acc = std::make_shared<ScriptedStatefulComponent>("acc");
  CheckpointRollbackComponent cr(
      "cr", acc, 8,
      [](std::int64_t, std::int64_t out) { return out < 100; });
  acc->corrupt_state_next(1, 1000);  // silent corruption -> output 1001
  const auto r = cr.process(1);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 1);  // redone cleanly after the rejected attempt
  EXPECT_EQ(cr.rejections(), 1u);
  EXPECT_EQ(cr.rollbacks(), 1u);
}

TEST(CheckpointTest, ExhaustionRestoresLastGoodState) {
  auto acc = std::make_shared<ScriptedStatefulComponent>("acc");
  CheckpointRollbackComponent cr("cr", acc, 3);
  cr.process(10);
  acc->crash_corrupting_next(100, 999);  // fails far beyond the budget
  EXPECT_FALSE(cr.process(5).ok);
  EXPECT_EQ(cr.exhaustions(), 1u);
  EXPECT_EQ(cr.rollbacks(), 4u);          // initial try + 3 retries, all undone
  EXPECT_EQ(acc->snapshot_state(), 10);   // state is still the checkpoint
}

}  // namespace
