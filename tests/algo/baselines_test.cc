#include "algo/cluster_greedy.h"
#include "algo/exact_dp.h"
#include "algo/mondrian.h"
#include "algo/random_partition.h"
#include "algo/suppress_all.h"

#include "core/distance_oracle.h"
#include "data/generators/census.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

Table RandomTable(uint64_t seed, uint32_t n, uint32_t m = 5,
                  uint32_t alphabet = 3) {
  Rng rng(seed);
  return UniformTable(
      {.num_rows = n, .num_columns = m, .alphabet = alphabet}, &rng);
}

TEST(MondrianTest, ValidAcrossK) {
  const Table t = RandomTable(1, 30);
  MondrianAnonymizer algo;
  for (const size_t k : {1u, 2u, 3u, 5u, 8u}) {
    const auto result = ValidateResult(t, k, algo.Run(t, k));
    // Mondrian leaves can be large but never below k.
    for (const Group& g : result.partition.groups) {
      EXPECT_GE(g.size(), k);
    }
  }
}

TEST(MondrianTest, SplitsSeparableData) {
  // Two well-separated clusters of duplicates: Mondrian must split them
  // apart and pay zero stars.
  Schema schema({"a", "b"});
  Table t(std::move(schema));
  for (int i = 0; i < 4; ++i) t.AppendStringRow({"x", "p"});
  for (int i = 0; i < 4; ++i) t.AppendStringRow({"y", "q"});
  MondrianAnonymizer algo;
  const auto result = ValidateResult(t, 4, algo.Run(t, 4));
  EXPECT_EQ(result.cost, 0u);
  EXPECT_EQ(result.partition.num_groups(), 2u);
}

TEST(MondrianTest, StrictSplittingKeepsEqualValuesTogether) {
  // 5 copies of one value and 1 of another on the split attribute with
  // k=3: no boundary cut keeps k on both sides, so a single leaf remains.
  Schema schema({"a"});
  Table t(std::move(schema));
  for (int i = 0; i < 5; ++i) t.AppendStringRow({"x"});
  t.AppendStringRow({"y"});
  MondrianAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.partition.num_groups(), 1u);
}

TEST(ClusterGreedyTest, ValidAndReasonable) {
  const Table t = RandomTable(2, 20);
  ClusterGreedyAnonymizer algo;
  const auto result = ValidateResult(t, 4, algo.Run(t, 4));
  // Groups are exactly k except possibly the ones absorbing leftovers.
  size_t total = 0;
  for (const Group& g : result.partition.groups) total += g.size();
  EXPECT_EQ(total, 20u);
}

TEST(ClusterGreedyTest, FindsPureClusters) {
  Rng rng(3);
  ClusteredTableOptions opt;
  opt.num_rows = 12;
  opt.num_clusters = 4;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  ClusterGreedyAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.cost, 0u);
}

TEST(ClusterGreedyTest, LeftoversFolded) {
  const Table t = RandomTable(4, 11);  // 11 rows, k=3 -> 3 groups + 2 left
  ClusterGreedyAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.partition.TotalMembers(), 11u);
}

TEST(ClusterGreedyTest, StopsWithOracleCachedAndDeadlineExpired) {
  // The oracle is already on the context, so only the greedy scans can
  // notice the expired deadline; a stopped run returns no partition.
  const Table t = RandomTable(10, 40);
  RunContext ctx;
  ASSERT_TRUE(SharedDistanceOracle(t, &ctx).ok());
  ctx.set_deadline_after_millis(-1.0);
  ClusterGreedyAnonymizer algo;
  const AnonymizationResult result = algo.Run(t, 3, &ctx);
  EXPECT_TRUE(result.partition.groups.empty());
  EXPECT_EQ(result.termination, StopReason::kDeadline);
}

TEST(RandomPartitionTest, ValidAndDeterministic) {
  const Table t = RandomTable(5, 17);
  RandomPartitionAnonymizer a(99), b(99);
  const auto ra = ValidateResult(t, 3, a.Run(t, 3));
  const auto rb = ValidateResult(t, 3, b.Run(t, 3));
  EXPECT_EQ(ra.cost, rb.cost);
  EXPECT_EQ(ra.partition.ToString(), rb.partition.ToString());
}

TEST(RandomPartitionTest, GroupsInWlogRange) {
  const Table t = RandomTable(6, 23);
  RandomPartitionAnonymizer algo;
  const auto result = algo.Run(t, 4);
  EXPECT_TRUE(IsValidPartition(result.partition, 23, 4, 7));
}

TEST(SuppressAllTest, SingleGroupCeiling) {
  const Table t = RandomTable(7, 10, 6, 9);
  SuppressAllAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.partition.num_groups(), 1u);
  // With a large alphabet every column almost surely disagrees.
  EXPECT_LE(result.cost, 60u);
}

TEST(SuppressAllTest, NoBaselineBeatsExactOptimum) {
  const Table t = RandomTable(8, 10, 4, 3);
  ExactDpAnonymizer exact;
  const size_t opt = exact.Run(t, 2).cost;
  MondrianAnonymizer mondrian;
  ClusterGreedyAnonymizer cluster;
  RandomPartitionAnonymizer random;
  SuppressAllAnonymizer all;
  EXPECT_GE(mondrian.Run(t, 2).cost, opt);
  EXPECT_GE(cluster.Run(t, 2).cost, opt);
  EXPECT_GE(random.Run(t, 2).cost, opt);
  EXPECT_GE(all.Run(t, 2).cost, opt);
}

TEST(BaselinesOnCensusTest, AllValidOnRealisticData) {
  Rng rng(9);
  const Table t = CensusTable({.num_rows = 60}, &rng);
  MondrianAnonymizer mondrian;
  ClusterGreedyAnonymizer cluster;
  RandomPartitionAnonymizer random;
  for (const size_t k : {2u, 5u}) {
    ValidateResult(t, k, mondrian.Run(t, k));
    ValidateResult(t, k, cluster.Run(t, k));
    ValidateResult(t, k, random.Run(t, k));
  }
}

}  // namespace
}  // namespace kanon
