#include "algo/fallback.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "algo/exact_dp.h"
#include "algo/registry.h"
#include "core/partition.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "hypergraph/generators.h"
#include "reductions/matching_to_kanon.h"
#include "util/random.h"
#include "util/timer.h"

/// \file
/// The resilient chain's contract: it ALWAYS returns a valid k-anonymous
/// partition, including on the adversarial instances the Theorem 3.1
/// reduction generates — where the exact search, given a tiny deadline,
/// cannot finish and answers from its seeded incumbent or leaves the
/// answer to a later stage.

namespace kanon {
namespace {

/// Theorem 3.1 hard instance: k-ANONYMITY table built from a planted
/// perfect-matching 3-hypergraph. `vertices` rows, one column per edge.
Table HardInstance(uint32_t vertices, uint32_t extra_edges, uint64_t seed) {
  Rng rng(seed);
  const Hypergraph h = PlantedMatchingHypergraph(
      {.num_vertices = vertices, .k = 3, .extra_edges = extra_edges}, &rng);
  return BuildKAnonInstance(h);
}

TEST(FallbackTest, SmallInstanceReturnsExactOptimumCompleted) {
  const Table v = HardInstance(/*vertices=*/9, /*extra_edges=*/3, /*seed=*/1);
  const size_t k = 3;

  FallbackAnonymizer resilient;
  RunContext ctx;  // unlimited
  const AnonymizationResult result = resilient.Run(v, k, &ctx);

  EXPECT_EQ(result.termination, StopReason::kNone);
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.stage, "branch_bound");
  ASSERT_TRUE(IsValidPartition(result.partition, v.num_rows(), k,
                               v.num_rows()));

  ExactDpAnonymizer exact;
  const AnonymizationResult optimum = exact.Run(v, k);
  EXPECT_EQ(result.cost, optimum.cost);
}

TEST(FallbackTest, HardInstanceWithTinyDeadlineDegradesButStaysValid) {
  // n = 21 rows: inside branch_bound's 28-row cap (so the chain really
  // runs the search) but far beyond what its 25 ms slice allows.
  const Table v = HardInstance(/*vertices=*/21, /*extra_edges=*/6,
                               /*seed=*/7);
  const size_t k = 3;

  FallbackAnonymizer resilient;
  RunContext ctx;
  ctx.set_deadline_after_millis(50.0);
  WallTimer timer;
  const AnonymizationResult result = resilient.Run(v, k, &ctx);
  const double elapsed_ms = timer.Seconds() * 1e3;

  // The deadline stopped the search: branch_bound answers with its
  // incumbent, or a later stage does if the seed itself ran out of time.
  EXPECT_EQ(result.termination, StopReason::kDeadline);
  EXPECT_FALSE(result.completed());
  EXPECT_TRUE(result.stage == "branch_bound" ||
              result.stage == "cluster_greedy+local_search" ||
              result.stage == "suppress_all")
      << result.stage;
  EXPECT_NE(result.notes.find("chain="), std::string::npos);

  // ... and it is still a genuine k-anonymization.
  ASSERT_TRUE(IsValidPartition(result.partition, v.num_rows(), k,
                               v.num_rows()));

  // Cooperative checkpoints bound the deadline overshoot: the whole
  // chain must come in well under the seconds the DP would need.
  EXPECT_LT(elapsed_ms, 2000.0);
}

TEST(FallbackTest, ExpiredDeadlineStillYieldsSuppressAll) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 30, .num_columns = 5, .alphabet = 3}, &rng);
  const size_t k = 4;

  FallbackAnonymizer resilient;
  RunContext ctx;
  ctx.set_deadline_after_millis(-1.0);  // already expired
  const AnonymizationResult result = resilient.Run(t, k, &ctx);

  EXPECT_EQ(result.termination, StopReason::kDeadline);
  // Terminal stage is unconditionally feasible even with no time left.
  EXPECT_EQ(result.stage, "suppress_all");
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), k,
                               t.num_rows()));
}

TEST(FallbackTest, ZeroDeadlineStillYieldsValidPartitionViaSuppressAll) {
  // Deadline of exactly zero: every stage's slice of the remaining time
  // is already spent, so only the unconditionally-feasible terminal
  // stage can answer — and it must. (Below its structural cap,
  // branch_bound would decline too: its distance-oracle build stops.)
  Rng rng(11);
  const Table t = UniformTable(
      {.num_rows = 35, .num_columns = 4, .alphabet = 3}, &rng);
  const size_t k = 5;

  FallbackAnonymizer resilient;
  RunContext ctx;
  ctx.set_deadline_after_millis(0.0);
  const AnonymizationResult result = resilient.Run(t, k, &ctx);

  EXPECT_EQ(result.termination, StopReason::kDeadline);
  EXPECT_EQ(result.stage, "suppress_all");
  EXPECT_NE(result.notes.find("chain="), std::string::npos);
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), k,
                               t.num_rows()));
  // Full suppression: every cell starred.
  EXPECT_EQ(result.cost,
            static_cast<size_t>(t.num_rows()) * t.num_columns());
}

TEST(FallbackTest, CancellationMidRunUnwindsParallelForCleanly) {
  // A ball_cover stage on 400 rows spends tens of milliseconds in its
  // ParallelFor-backed distance/family precomputations; cancelling from
  // another thread a few ms in lands mid-flight. The chain must unwind
  // without leaks or races (this is exercised under KANON_SANITIZE in
  // CI) and still answer through the terminal stage.
  Rng rng(12);
  const Table t = UniformTable(
      {.num_rows = 400, .num_columns = 6, .alphabet = 4}, &rng);
  const size_t k = 3;

  FallbackOptions options;
  options.stages = {"ball_cover", "suppress_all"};
  FallbackAnonymizer resilient(options);
  RunContext ctx;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ctx.RequestCancel();
  });
  const AnonymizationResult result = resilient.Run(t, k, &ctx);
  canceller.join();

  EXPECT_EQ(result.termination, StopReason::kCancelled);
  EXPECT_EQ(result.stage, "suppress_all");
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), k,
                               t.num_rows()));
}

TEST(FallbackTest, CancellationPropagatesThroughChain) {
  Rng rng(4);
  const Table t = UniformTable(
      {.num_rows = 40, .num_columns = 6, .alphabet = 4}, &rng);
  const size_t k = 3;

  FallbackAnonymizer resilient;
  RunContext ctx;
  ctx.RequestCancel();  // cancelled before the run even starts
  const AnonymizationResult result = resilient.Run(t, k, &ctx);

  EXPECT_EQ(result.termination, StopReason::kCancelled);
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), k,
                               t.num_rows()));
}

TEST(FallbackTest, MediumInstanceFallsThroughToGreedyCover) {
  // 40 rows exceeds branch_bound's 28-row cap; on a lenient chain
  // context it declines and the seed heuristic answers by itself.
  Rng rng(5);
  const Table t = UniformTable(
      {.num_rows = 40, .num_columns = 6, .alphabet = 4}, &rng);
  const size_t k = 3;

  FallbackAnonymizer resilient;
  RunContext ctx;
  const AnonymizationResult result = resilient.Run(t, k, &ctx);

  EXPECT_EQ(result.stage, "cluster_greedy+local_search");
  EXPECT_EQ(result.termination, StopReason::kBudget);  // declines latched
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), k,
                               t.num_rows()));
}

TEST(FallbackTest, NeverCostlierThanClusterGreedyLocalSearch) {
  // Up to 28 rows branch_bound answers from the heuristic's seed, and
  // above that the heuristic answers itself, so under the same node
  // budget the chain is never costlier than cluster_greedy+local_search.
  Rng rng(21);
  FallbackAnonymizer resilient;
  const auto heuristic = MakeAnonymizer("cluster_greedy+local_search");
  for (const uint32_t n : {8u, 16u, 24u, 28u, 29u, 40u, 64u, 128u}) {
    for (const size_t k : {2u, 3u}) {
      for (int trial = 0; trial < 8; ++trial) {
        const Table t = UniformTable(
            {.num_rows = n, .num_columns = 3, .alphabet = 4}, &rng);
        RunContext chain_ctx;
        chain_ctx.set_node_budget(2000);
        RunContext heuristic_ctx;
        heuristic_ctx.set_node_budget(2000);
        EXPECT_LE(resilient.Run(t, k, &chain_ctx).cost,
                  heuristic->Run(t, k, &heuristic_ctx).cost)
            << "n=" << n << " k=" << k << " trial=" << trial;
      }
    }
  }
}

TEST(FallbackTest, LargeTableDeadlineAnswersFromSuppressAllInTime) {
  // 4096 rows: branch_bound declines at once, and the heuristic's
  // O(n^2 m) greedy scans take far longer than its 25 ms slice, so it
  // must notice the deadline and leave the answer to suppress_all.
  Rng rng(13);
  const Table t = UniformTable(
      {.num_rows = 4096, .num_columns = 8, .alphabet = 4}, &rng);
  const size_t k = 5;

  FallbackAnonymizer resilient;
  RunContext ctx;
  ctx.set_deadline_after_millis(50.0);
  WallTimer timer;
  const AnonymizationResult result = resilient.Run(t, k, &ctx);
  const double elapsed_ms = timer.Seconds() * 1e3;

  EXPECT_EQ(result.stage, "suppress_all");
  // The heuristic's deadline stop outranks branch_bound's structural
  // decline, so the answer is not reported as a structural one.
  EXPECT_EQ(result.termination, StopReason::kDeadline);
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), k,
                               t.num_rows()));
  EXPECT_LT(elapsed_ms, 4 * 50.0);
}

/// Admits every stage and records each outcome the chain reports.
class RecordingGate : public StageGate {
 public:
  bool Allow(const std::string&) override { return true; }
  void Record(const std::string& stage, bool success) override {
    records.push_back(stage + (success ? ":ok" : ":failed"));
  }
  std::vector<std::string> records;
};

/// A stage that never produces a partition: it polls its context until
/// its deadline slice runs out.
class StallingStage : public Anonymizer {
 public:
  using Anonymizer::Run;
  std::string name() const override { return "stall"; }
  AnonymizationResult Run(const Table&, size_t, RunContext* ctx) override {
    while (!ctx->ShouldStop()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return StoppedResult(*ctx, 0.0, "stalled");
  }
};

TEST(FallbackTest, OnlyAStageThatSpentItsSliceRecordsAFailure) {
  // 40 rows: branch_bound declines on its structural cap (kBudget) and
  // spends nothing, so the gate hears only from the stage that answers.
  RecordingGate gate;
  FallbackAnonymizer resilient({.gate = &gate});
  Rng rng(5);
  const Table t = UniformTable(
      {.num_rows = 40, .num_columns = 6, .alphabet = 4}, &rng);
  RunContext ctx;
  EXPECT_EQ(resilient.Run(t, 3, &ctx).stage, "cluster_greedy+local_search");
  EXPECT_EQ(gate.records,
            std::vector<std::string>{"cluster_greedy+local_search:ok"});

  // A stage stopped by its deadline slice is a failure.
  RecordingGate stalled_gate;
  FallbackAnonymizer stalling(
      {.stages = {"stall", "suppress_all"},
       .gate = &stalled_gate,
       .make_stage = [](const std::string& stage)
           -> std::unique_ptr<Anonymizer> {
         if (stage == "stall") return std::make_unique<StallingStage>();
         return MakeAnonymizer(stage);
       }});
  RunContext deadline_ctx;
  deadline_ctx.set_deadline_after_millis(20.0);
  const AnonymizationResult result = stalling.Run(t, 3, &deadline_ctx);
  EXPECT_EQ(result.stage, "suppress_all");
  EXPECT_EQ(result.termination, StopReason::kDeadline);
  EXPECT_EQ(stalled_gate.records, std::vector<std::string>{"stall:failed"});
}

TEST(FallbackTest, RegistryExposesResilient) {
  auto algo = MakeAnonymizer("resilient");
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->name(), "resilient");

  Rng rng(6);
  const Table t = UniformTable(
      {.num_rows = 12, .num_columns = 4, .alphabet = 3}, &rng);
  // Back-compat 2-arg Run works on the chain too.
  const AnonymizationResult result = algo->Run(t, 3);
  EXPECT_TRUE(IsValidPartition(result.partition, t.num_rows(), 3,
                               t.num_rows()));
}

TEST(FallbackDeathTest, NestedResilientStageRejected) {
  FallbackOptions options;
  options.stages = {"resilient"};
  EXPECT_DEATH((void)FallbackAnonymizer(options),
               "fallback chain cannot nest itself");
}

}  // namespace
}  // namespace kanon
