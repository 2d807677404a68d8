#include "algo/cluster_greedy.h"
#include "algo/exact_dp.h"
#include "algo/mondrian.h"
#include "algo/random_partition.h"
#include "algo/suppress_all.h"

#include <string>
#include <utility>
#include <vector>

#include "core/distance_oracle.h"
#include "core/group_stats.h"
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

// ClusterGreedyAnonymizer::Run as it was before its picks went to
// column masks: one GroupStats per group, and every candidate an O(m)
// CostWith walk of its per-column (code, count) lists. Kept here as the
// reference the production greedy must match pick for pick.
AnonymizationResult ReferenceClusterGreedy(const Table& table, size_t k,
                                           RunContext* ctx) {
  const RowId n = table.num_rows();
  const auto oracle = SharedDistanceOracle(table, ctx);
  KANON_CHECK(oracle.ok());
  const DistanceOracle& dm = **oracle;
  std::vector<bool> assigned(n, false);
  size_t unassigned = n;
  AnonymizationResult result;
  std::vector<GroupStats> stats;
  RowId seed = 0;
  while (unassigned >= k) {
    if (ctx->ShouldStop()) {
      return StoppedResult(*ctx, 0.0,
                           "stopped with " + std::to_string(unassigned) +
                               " rows unassigned");
    }
    RowId far = n;
    ColId far_dist = 0;
    for (RowId r = 0; r < n; ++r) {
      if (assigned[r]) continue;
      const ColId d = result.partition.groups.empty() && r == 0
                          ? 0
                          : dm.at(seed, r);
      if (far == n || d > far_dist) {
        far = r;
        far_dist = d;
      }
    }
    seed = far;
    Group group = {seed};
    GroupStats group_stats(table);
    group_stats.Add(seed);
    assigned[seed] = true;
    --unassigned;
    while (group.size() < k) {
      RowId best = n;
      size_t best_cost = 0;
      for (RowId r = 0; r < n; ++r) {
        if (assigned[r]) continue;
        const size_t c = group_stats.CostWith(r);
        if (best == n || c < best_cost) {
          best = r;
          best_cost = c;
        }
      }
      group.push_back(best);
      group_stats.Add(best);
      assigned[best] = true;
      --unassigned;
    }
    result.partition.groups.push_back(std::move(group));
    stats.push_back(std::move(group_stats));
  }
  for (RowId r = 0; r < n; ++r) {
    if (assigned[r]) continue;
    size_t best_group = 0;
    size_t best_delta = 0;
    bool first = true;
    for (size_t g = 0; g < stats.size(); ++g) {
      const size_t delta = stats[g].CostWith(r) - stats[g].anon_cost();
      if (first || delta < best_delta) {
        first = false;
        best_group = g;
        best_delta = delta;
      }
    }
    result.partition.groups[best_group].push_back(r);
    stats[best_group].Add(r);
    assigned[r] = true;
  }
  FinalizeResult(table, &result);
  result.notes = "groups=" + std::to_string(result.partition.num_groups());
  return result;
}

// The production greedy against the reference on seeded tables of one
// to three mask words, with starred cells, duplicated rows, codes far
// above the alphabet and, on a third, row weights; n is rarely a
// multiple of k, so leftovers are folded. Odd seeds read an on-demand
// oracle. Partition, cost, notes and termination must be equal.
TEST(ClusterGreedyTest, MatchesReferenceGreedy) {
  constexpr ColId kColumns[] = {1, 3, 8, 63, 64, 65, 130};
  for (uint64_t seed = 1; seed <= 140; ++seed) {
    Rng rng(seed, /*stream=*/0x63677266ull);  // "cgrf"
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 6));
    const ColId m = kColumns[seed % std::size(kColumns)];
    const int max_rows = seed % 3 == 1 ? static_cast<int>(4 * k + 3) : 300;
    const auto n = static_cast<RowId>(
        rng.UniformInt(static_cast<int>(k), max_rows));
    const auto alphabet = static_cast<uint32_t>(rng.UniformInt(2, 6));
    Table t = UniformTable(
        {.num_rows = n, .num_columns = m, .alphabet = alphabet}, &rng);
    const bool sparse = seed % 4 == 1;
    for (RowId r = 0; r < n; ++r) {
      if (r > 0 && rng.Bernoulli(0.1)) {
        const RowId source = rng.Uniform(r);
        for (ColId c = 0; c < m; ++c) t.set(r, c, t.at(source, c));
        continue;
      }
      for (ColId c = 0; c < m; ++c) {
        if (rng.Bernoulli(0.1)) {
          t.set(r, c, kSuppressedCode);
        } else if (sparse) {
          t.set(r, c, 100000 + 7919 * t.at(r, c));
        }
      }
    }
    if (seed % 3 == 0) {
      std::vector<uint32_t> weights(n);
      for (uint32_t& w : weights) w = 1 + rng.Uniform(5);
      t.SetRowWeights(std::move(weights));
    }
    RunContext ref_ctx;
    RunContext ctx;
    if (seed % 2 == 1) {
      ASSERT_TRUE(
          SharedDistanceOracle(t, &ref_ctx, {.dense_threshold = 0}).ok());
      ASSERT_TRUE(SharedDistanceOracle(t, &ctx, {.dense_threshold = 0}).ok());
    }
    const AnonymizationResult expected = ReferenceClusterGreedy(t, k, &ref_ctx);
    const AnonymizationResult got = ClusterGreedyAnonymizer().Run(t, k, &ctx);
    const std::string where = "seed=" + std::to_string(seed) +
                              " n=" + std::to_string(n) +
                              " m=" + std::to_string(m) +
                              " k=" + std::to_string(k);
    EXPECT_EQ(got.partition.groups, expected.partition.groups) << where;
    EXPECT_EQ(got.cost, expected.cost) << where;
    EXPECT_EQ(got.notes, expected.notes) << where;
    EXPECT_EQ(got.termination, expected.termination) << where;
  }
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
