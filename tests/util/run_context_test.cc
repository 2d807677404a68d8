#include "util/run_context.h"

#include <string>
#include <string_view>
#include <thread>

#include "gtest/gtest.h"

namespace kanon {
namespace {

TEST(RunContextTest, DefaultContextNeverStops) {
  RunContext ctx;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(ctx.ShouldStop());
  }
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
  EXPECT_FALSE(ctx.lenient());
}

TEST(RunContextTest, ExpiredDeadlineStopsAndLatches) {
  RunContext ctx;
  ctx.set_deadline_after_millis(-1.0);  // already expired
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
  // Latched: later checks are cheap and stay stopped.
  EXPECT_TRUE(ctx.ShouldStop());
}

TEST(RunContextTest, FutureDeadlineDoesNotStopYet) {
  RunContext ctx;
  ctx.set_deadline_after_millis(60'000.0);
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_GT(ctx.remaining_millis(), 1000.0);
}

TEST(RunContextTest, CancellationStops) {
  RunContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

TEST(RunContextTest, CancellationPropagatesToChildren) {
  RunContext parent;
  RunContext child(&parent);
  RunContext grandchild(&child);
  EXPECT_FALSE(grandchild.ShouldStop());
  parent.RequestCancel();
  EXPECT_TRUE(grandchild.cancel_requested());
  EXPECT_TRUE(grandchild.ShouldStop());
  EXPECT_EQ(grandchild.stop_reason(), StopReason::kCancelled);
  // Limits are NOT inherited: the parent's stop does not mark a fresh
  // sibling that never observed it... but cancellation does.
  RunContext sibling(&parent);
  EXPECT_TRUE(sibling.ShouldStop());
}

TEST(RunContextTest, ChildDeadlineDoesNotAffectParent) {
  RunContext parent;
  RunContext child(&parent);
  child.set_deadline_after_millis(-1.0);
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_FALSE(parent.ShouldStop());
  EXPECT_EQ(parent.stop_reason(), StopReason::kNone);
}

TEST(RunContextTest, NodeBudgetStopsAfterOverrun) {
  RunContext ctx;
  ctx.set_node_budget(10);
  ctx.ChargeNodes(9);
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.ChargeNodes(2);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
  EXPECT_EQ(ctx.nodes_charged(), 11u);
}

TEST(RunContextTest, FirstStopReasonWins) {
  RunContext ctx;
  ctx.set_deadline_after_millis(-1.0);
  EXPECT_TRUE(ctx.ShouldStop());
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
}

TEST(RunContextTest, MarkStoppedLatchesDirectly) {
  RunContext ctx;
  ctx.MarkStopped(StopReason::kBudget);
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
}

TEST(RunContextTest, CancelFromAnotherThreadIsObserved) {
  RunContext ctx;
  std::thread canceller([&] { ctx.RequestCancel(); });
  canceller.join();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

class RecordingSink : public CheckpointSink {
 public:
  Status Persist(std::string_view solver,
                 const std::string& payload) override {
    solver_ = std::string(solver);
    payload_ = payload;
    ++persists_;
    return fail_ ? Status::Internal("sink down") : Status::Ok();
  }
  void set_fail(bool fail) { fail_ = fail; }
  uint64_t persists() const { return persists_; }
  const std::string& solver() const { return solver_; }
  const std::string& payload() const { return payload_; }

 private:
  bool fail_ = false;
  uint64_t persists_ = 0;
  std::string solver_;
  std::string payload_;
};

TEST(RunContextCheckpointTest, DisarmedCadenceIsNeverDue) {
  RunContext ctx;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(ctx.CheckpointDue());
  EXPECT_FALSE(ctx.EmitCheckpoint("solver", "state").ok());
  EXPECT_EQ(ctx.checkpoints_emitted(), 0u);
}

TEST(RunContextCheckpointTest, PollCadenceFiresEveryNthPoll) {
  RecordingSink sink;
  RunContext ctx;
  ctx.ArmCheckpoints(&sink, /*every_polls=*/4);
  int due = 0;
  for (int i = 0; i < 12; ++i) {
    if (ctx.CheckpointDue()) ++due;
  }
  EXPECT_EQ(due, 3);

  ASSERT_TRUE(ctx.EmitCheckpoint("solver", "state-1").ok());
  EXPECT_EQ(sink.persists(), 1u);
  EXPECT_EQ(sink.solver(), "solver");
  EXPECT_EQ(sink.payload(), "state-1");
  EXPECT_EQ(ctx.checkpoints_emitted(), 1u);

  ctx.DisarmCheckpoints();
  EXPECT_FALSE(ctx.CheckpointDue());
  EXPECT_FALSE(ctx.EmitCheckpoint("solver", "state-2").ok());
  EXPECT_EQ(sink.persists(), 1u);
}

TEST(RunContextCheckpointTest, ChildContextReachesTheArmedRoot) {
  RecordingSink sink;
  RunContext root;
  root.ArmCheckpoints(&sink, /*every_polls=*/1);
  RunContext child(&root);
  RunContext grandchild(&child);

  // Solvers run under fallback-chain child contexts; the cadence and
  // the sink both live on the job root, like cancellation.
  EXPECT_TRUE(grandchild.CheckpointDue());
  ASSERT_TRUE(grandchild.EmitCheckpoint("solver", "deep").ok());
  EXPECT_EQ(sink.payload(), "deep");
  EXPECT_EQ(root.checkpoints_emitted(), 1u);
}

TEST(RunContextCheckpointTest, FailedPersistDoesNotCountAsEmitted) {
  RecordingSink sink;
  sink.set_fail(true);
  RunContext ctx;
  ctx.ArmCheckpoints(&sink, 1);
  EXPECT_FALSE(ctx.EmitCheckpoint("solver", "state").ok());
  EXPECT_EQ(sink.persists(), 1u);  // the sink was asked...
  EXPECT_EQ(ctx.checkpoints_emitted(), 0u);  // ...but nothing landed
}

TEST(RunContextCheckpointTest, ResumePayloadIsSharedDownTheChain) {
  RunContext root;
  root.SetResume("annealing", "rng-and-partition");
  RunContext child(&root);

  ASSERT_TRUE(child.resume_payload("annealing").has_value());
  EXPECT_EQ(*child.resume_payload("annealing"), "rng-and-partition");
  // Non-consuming: an in-place retry re-resumes deterministically.
  EXPECT_TRUE(child.resume_payload("annealing").has_value());
  EXPECT_FALSE(child.resume_payload("local_search").has_value());
}

TEST(RunContextCheckpointTest, IsolationBlocksTheAncestorWalk) {
  // A parallel fan-out wrapper (the sharded pipeline) isolates its
  // per-shard children: solvers under the barrier see neither the armed
  // job-root sink (no concurrent snapshot writers) nor job-root resume
  // payloads (no cross-shard state restoration) — while cancellation
  // and heartbeats still flow through.
  RecordingSink sink;
  RunContext root;
  root.ArmCheckpoints(&sink, /*every_polls=*/1);
  root.SetResume("mdav", "whole-table-state");
  RunContext shard(&root);
  shard.set_checkpoint_isolated(true);
  RunContext inner(&shard);

  EXPECT_FALSE(shard.CheckpointDue());
  EXPECT_FALSE(inner.CheckpointDue());
  EXPECT_FALSE(inner.EmitCheckpoint("mdav", "shard-local").ok());
  EXPECT_EQ(sink.persists(), 0u);
  EXPECT_FALSE(shard.resume_payload("mdav").has_value());
  EXPECT_FALSE(inner.resume_payload("mdav").has_value());

  // The barrier context's own slot and arming stay visible below it.
  shard.SetResume("mdav", "shard-scoped");
  ASSERT_TRUE(inner.resume_payload("mdav").has_value());
  EXPECT_EQ(*inner.resume_payload("mdav"), "shard-scoped");

  // The rest of the ancestor chain is unaffected by the barrier.
  const uint64_t before = root.heartbeats();
  (void)inner.ShouldStop();
  EXPECT_EQ(root.heartbeats(), before + 1);
  root.RequestCancel();
  EXPECT_TRUE(inner.cancel_requested());
}

TEST(RunContextTest, HeartbeatsBumpTheWholeAncestorChain) {
  RunContext root;
  RunContext child(&root);
  const uint64_t before = root.heartbeats();
  for (int i = 0; i < 5; ++i) (void)child.ShouldStop();
  EXPECT_EQ(child.heartbeats(), 5u);
  EXPECT_EQ(root.heartbeats(), before + 5);
}

TEST(RunContextTest, PreemptImpliesCancelAndIsInherited) {
  RunContext root;
  RunContext child(&root);
  EXPECT_FALSE(child.preempt_requested());
  root.RequestPreempt();
  EXPECT_TRUE(child.preempt_requested());
  EXPECT_TRUE(child.cancel_requested());
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_EQ(child.stop_reason(), StopReason::kCancelled);
}

TEST(StopReasonTest, NamesAndStatusMapping) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "completed");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kBudget), "budget");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");

  EXPECT_TRUE(StopReasonToStatus(StopReason::kNone).ok());
  EXPECT_EQ(StopReasonToStatus(StopReason::kDeadline).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StopReasonToStatus(StopReason::kBudget).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StopReasonToStatus(StopReason::kCancelled).code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace kanon
