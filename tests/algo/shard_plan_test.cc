#include "algo/shard_plan.h"

#include <algorithm>
#include <vector>

#include "data/generators/synthetic.h"
#include "data/generators/uniform.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/run_context.h"

/// \file
/// Planner contract: the cut is a disjoint cover of [0, n) with every
/// shard >= 2k-1 rows, deterministic from (table, k, options), bounded
/// by the requested shard count, and typed on faults and stops.

namespace kanon {
namespace {

Table TestTable(uint64_t rows, uint64_t seed = 7) {
  SyntheticTableOptions options;
  options.num_rows = rows;
  options.num_columns = 4;
  options.seed = seed;
  return SyntheticTable(options);
}

/// Every row of [0, n) in exactly one shard, each shard sorted, shards
/// ordered by their smallest member.
void ExpectDisjointCover(const ShardPlan& plan, size_t n, size_t k) {
  std::vector<char> seen(n, 0);
  RowId prev_front = 0;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const Group& shard = plan.shards[s];
    ASSERT_GE(shard.size(), 2 * k - 1) << "shard " << s;
    ASSERT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    if (s > 0) {
      EXPECT_GT(shard.front(), prev_front);
    }
    prev_front = shard.front();
    for (const RowId r : shard) {
      ASSERT_LT(r, n);
      EXPECT_EQ(seen[r], 0) << "row " << r << " in two shards";
      seen[r] = 1;
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<long>(n));
}

TEST(ShardPlanTest, CutsDisjointCoverWithMinimumShardSize) {
  const Table table = TestTable(200);
  RunContext ctx;
  StatusOr<ShardPlan> plan = PlanShards(table, 5, ShardOptions{}, &ctx);
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->num_shards(), kDefaultShardCount);
  ExpectDisjointCover(*plan, 200, 5);
}

TEST(ShardPlanTest, DeterministicCutAndFingerprint) {
  const Table table = TestTable(300, 21);
  ShardOptions options;
  options.shards = 6;
  RunContext ctx_a, ctx_b;
  StatusOr<ShardPlan> a = PlanShards(table, 4, options, &ctx_a);
  StatusOr<ShardPlan> b = PlanShards(table, 4, options, &ctx_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  ASSERT_EQ(a->num_shards(), b->num_shards());
  for (size_t s = 0; s < a->num_shards(); ++s) {
    EXPECT_EQ(a->shards[s], b->shards[s]);
  }
}

TEST(ShardPlanTest, ResolveShardCountCapsAtFeasibleShards) {
  // n=20, k=3: floor 2k-1=5 feeds at most 4 shards.
  ShardOptions eight;
  eight.shards = 8;
  EXPECT_EQ(ResolveShardCount(20, 3, eight), 4u);
  // Default request on a tiny table degenerates to 1 (direct path).
  EXPECT_EQ(ResolveShardCount(8, 3, ShardOptions{}), 1u);
  // A generous table honors the request exactly.
  ShardOptions three;
  three.shards = 3;
  EXPECT_EQ(ResolveShardCount(1000, 5, three), 3u);
}

TEST(ShardPlanTest, HonorsRequestedShardCountOnRandomTables) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    UniformTableOptions table_options;
    table_options.num_rows =
        static_cast<uint32_t>(rng.UniformInt(30, 200));
    table_options.num_columns = static_cast<uint32_t>(rng.UniformInt(2, 5));
    table_options.alphabet = static_cast<uint32_t>(rng.UniformInt(2, 6));
    const Table table = UniformTable(table_options, &rng);
    const size_t k = static_cast<size_t>(rng.UniformInt(2, 5));
    ShardOptions options;
    options.shards = static_cast<size_t>(rng.UniformInt(2, 6));
    RunContext ctx;
    StatusOr<ShardPlan> plan = PlanShards(table, k, options, &ctx);
    ASSERT_TRUE(plan.ok()) << plan.status().message();
    EXPECT_EQ(plan->num_shards(),
              ResolveShardCount(table.num_rows(), k, options));
    ExpectDisjointCover(*plan, table.num_rows(), k);
  }
}

TEST(ShardPlanTest, ConstantTableStillSplitsAtIndexMedian) {
  // Every row identical: no widest column exists, but the planner must
  // still cut (the halves are equally coherent either way).
  Table table(Schema({"x", "y"}));
  for (int i = 0; i < 40; ++i) table.AppendStringRow({"a", "b"});
  ShardOptions options;
  options.shards = 4;
  RunContext ctx;
  StatusOr<ShardPlan> plan = PlanShards(table, 3, options, &ctx);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_shards(), 4u);
  ExpectDisjointCover(*plan, 40, 3);
}

TEST(ShardPlanTest, FaultSiteDeclinesTyped) {
  const Table table = TestTable(100);
  FaultPlan fault_plan;
  fault_plan.seed = 3;
  fault_plan.sites.push_back({.site = "shard.plan", .first_n = 1});
  ScopedFaultInjection injection(fault_plan);
  RunContext ctx;
  StatusOr<ShardPlan> plan = PlanShards(table, 3, ShardOptions{}, &ctx);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
}

TEST(ShardPlanTest, CancelledContextStopsTyped) {
  const Table table = TestTable(100);
  RunContext ctx;
  ctx.RequestCancel();
  StatusOr<ShardPlan> plan = PlanShards(table, 3, ShardOptions{}, &ctx);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kCancelled);
}

TEST(ShardPlanTest, OptionsFingerprintSeparatesKnobs) {
  ShardOptions a, b;
  a.shards = 4;
  b.shards = 8;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.shards = 4;
  b.shard_parallelism = 2;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b.shard_parallelism = 0;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace kanon
