#include "algo/local_search.h"

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "algo/ball_cover.h"
#include "algo/exact_dp.h"
#include "algo/random_partition.h"
#include "ckpt/checkpoint.h"
#include "core/cost.h"
#include "core/group_stats.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/run_context.h"

namespace kanon {
namespace {

TEST(ImprovePartitionTest, LeavesOptimumAlone) {
  // Two duplicate pairs optimally paired: no move can help.
  Schema schema({"a", "b"});
  Table t(std::move(schema));
  t.AppendStringRow({"x", "y"});
  t.AppendStringRow({"x", "y"});
  t.AppendStringRow({"p", "q"});
  t.AppendStringRow({"p", "q"});
  Partition p;
  p.groups = {{0, 1}, {2, 3}};
  const size_t moves = ImprovePartition(t, 2, {}, &p);
  EXPECT_EQ(moves, 0u);
  EXPECT_EQ(PartitionCost(t, p), 0u);
}

TEST(ImprovePartitionTest, SwapFixesCrossedPairs) {
  // Pairs deliberately crossed: swap should uncross them to cost 0.
  Schema schema({"a", "b", "c"});
  Table t(std::move(schema));
  t.AppendStringRow({"x", "x", "x"});  // 0
  t.AppendStringRow({"y", "y", "y"});  // 1
  t.AppendStringRow({"x", "x", "x"});  // 2
  t.AppendStringRow({"y", "y", "y"});  // 3
  Partition p;
  p.groups = {{0, 1}, {2, 3}};  // crossed: cost 3+3... all columns differ
  const size_t before = PartitionCost(t, p);
  ASSERT_GT(before, 0u);
  ImprovePartition(t, 2, {}, &p);
  EXPECT_EQ(PartitionCost(t, p), 0u);
}

TEST(ImprovePartitionTest, MoveShrinksOversizedGroup) {
  // Group {0,1,2} where 2 really belongs with {3,4}: the move rule must
  // relocate it.
  Schema schema({"a", "b"});
  Table t(std::move(schema));
  t.AppendStringRow({"x", "x"});  // 0
  t.AppendStringRow({"x", "x"});  // 1
  t.AppendStringRow({"z", "z"});  // 2 (misplaced)
  t.AppendStringRow({"z", "z"});  // 3
  t.AppendStringRow({"z", "z"});  // 4
  Partition p;
  p.groups = {{0, 1, 2}, {3, 4}};
  ImprovePartition(t, 2, {}, &p);
  EXPECT_EQ(PartitionCost(t, p), 0u);
  EXPECT_TRUE(IsValidPartition(p, 5, 2, 5));
}

TEST(ImprovePartitionTest, ZeroPassesIsNoop) {
  Rng rng(1);
  const Table t = UniformTable({.num_rows = 8, .num_columns = 4}, &rng);
  Partition p;
  p.groups = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  const size_t before = PartitionCost(t, p);
  LocalSearchOptions opt;
  opt.max_passes = 0;
  EXPECT_EQ(ImprovePartition(t, 2, opt, &p), 0u);
  EXPECT_EQ(PartitionCost(t, p), before);
}

// Property: local search never increases cost and preserves validity.
class LocalSearchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalSearchPropertyTest, NeverWorseAndValid) {
  Rng rng(GetParam());
  const uint32_t n = 12;
  const size_t k = 2 + GetParam() % 3;
  const Table t = UniformTable(
      {.num_rows = n, .num_columns = 6, .alphabet = 3}, &rng);
  Group all(n);
  for (RowId r = 0; r < n; ++r) all[r] = r;
  rng.Shuffle(&all);
  Partition p;
  p.groups = {all};
  p = SplitLargeGroups(p, k);
  const size_t before = PartitionCost(t, p);
  ImprovePartition(t, k, {}, &p);
  EXPECT_LE(PartitionCost(t, p), before);
  EXPECT_TRUE(IsValidPartition(p, n, k, n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalSearchPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(LocalSearchAnonymizerTest, WrapsBaseAndImproves) {
  Rng rng(2);
  ClusteredTableOptions opt;
  opt.num_rows = 12;
  opt.num_clusters = 4;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  LocalSearchAnonymizer algo(
      std::make_unique<RandomPartitionAnonymizer>(7));
  EXPECT_EQ(algo.name(), "random_partition+local_search");
  RandomPartitionAnonymizer base(7);
  const size_t base_cost = base.Run(t, 3).cost;
  const auto improved = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_LE(improved.cost, base_cost);
}

TEST(LocalSearchAnonymizerTest, NeverBelowOptimum) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 10, .num_columns = 5, .alphabet = 3}, &rng);
  ExactDpAnonymizer exact;
  const size_t opt = exact.Run(t, 2).cost;
  LocalSearchAnonymizer algo(std::make_unique<BallCoverAnonymizer>());
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_GE(result.cost, opt);
}

TEST(LocalSearchAnonymizerTest, NotesIncludeBaseCost) {
  Rng rng(4);
  const Table t = UniformTable({.num_rows = 8, .num_columns = 4}, &rng);
  LocalSearchAnonymizer algo(std::make_unique<BallCoverAnonymizer>());
  const auto result = algo.Run(t, 2);
  EXPECT_NE(result.notes.find("base_cost="), std::string::npos);
}

// ImprovePartition as it was before its probes went to column masks:
// one GroupStats per group, and every MOVE and SWAP probe an O(m) walk
// of its per-column (code, count) lists. Kept here as the reference the
// production passes must match move for move, node for node and
// checkpoint for checkpoint. Resume is left out: no run below installs
// a resume payload. `*moves_out` counts the applied MOVEs.
size_t ReferenceImprovePartition(const Table& table, size_t k,
                                 const LocalSearchOptions& options,
                                 Partition* partition, RunContext* ctx,
                                 size_t* moves_out) {
  size_t applied = 0;
  std::vector<Group>& groups = partition->groups;
  std::vector<GroupStats> stats;
  std::vector<size_t> cost(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    stats.emplace_back(table, groups[g]);
    cost[g] = stats[g].anon_cost();
  }
  const auto stop = [&] {
    if (ctx == nullptr) return false;
    ctx->ChargeNodes();
    return ctx->ShouldStop();
  };
  for (size_t pass = 0; pass < options.max_passes && !stop(); ++pass) {
    if (ctx != nullptr && ctx->CheckpointDue()) {
      CheckpointWriter w;
      w.PutU64(pass);
      w.PutU64(applied);
      w.PutU64(std::accumulate(cost.begin(), cost.end(), size_t{0}));
      w.PutPartition(*partition);
      (void)ctx->EmitCheckpoint("local_search", w.bytes());
    }
    bool improved = false;
    for (size_t a = 0; a < groups.size() && !stop(); ++a) {
      if (groups[a].size() <= k) continue;
      for (size_t i = 0; i < groups[a].size(); ++i) {
        const RowId row = groups[a][i];
        const size_t a_without = stats[a].CostWithout(row);
        size_t best_b = groups.size();
        size_t best_delta_gain = 0;
        for (size_t b = 0; b < groups.size(); ++b) {
          if (b == a) continue;
          const size_t b_with = stats[b].CostWith(row);
          const size_t before = cost[a] + cost[b];
          const size_t after = a_without + b_with;
          if (after < before) {
            const size_t gain = before - after;
            if (best_b == groups.size() || gain > best_delta_gain) {
              best_b = b;
              best_delta_gain = gain;
            }
          }
        }
        if (best_b != groups.size()) {
          groups[best_b].push_back(row);
          groups[a].erase(groups[a].begin() + static_cast<ptrdiff_t>(i));
          stats[best_b].Add(row);
          stats[a].Remove(row);
          cost[a] = stats[a].anon_cost();
          cost[best_b] = stats[best_b].anon_cost();
          ++applied;
          ++*moves_out;
          improved = true;
          if (groups[a].size() <= k) break;
          --i;
        }
      }
    }
    for (size_t a = 0; a < groups.size() && !stop(); ++a) {
      for (size_t b = a + 1; b < groups.size(); ++b) {
        for (size_t i = 0; i < groups[a].size(); ++i) {
          for (size_t j = 0; j < groups[b].size(); ++j) {
            const RowId row_a = groups[a][i];
            const RowId row_b = groups[b][j];
            const size_t a_new = stats[a].CostReplacing(row_a, row_b);
            const size_t b_new = stats[b].CostReplacing(row_b, row_a);
            if (a_new + b_new < cost[a] + cost[b]) {
              std::swap(groups[a][i], groups[b][j]);
              stats[a].Remove(row_a);
              stats[a].Add(row_b);
              stats[b].Remove(row_b);
              stats[b].Add(row_a);
              cost[a] = a_new;
              cost[b] = b_new;
              ++applied;
              improved = true;
            }
          }
        }
      }
    }
    if (!improved) break;
  }
  return applied;
}

/// Every snapshot a run emits, in order.
class RecordingSink : public CheckpointSink {
 public:
  Status Persist(std::string_view solver,
                 const std::string& payload) override {
    snapshots.push_back(std::string(solver) + ":" + payload);
    return Status::Ok();
  }
  std::vector<std::string> snapshots;
};

// The production passes against the reference on seeded tables of one
// to three mask words and a last word that is full, partial or a single
// column, with starred cells, duplicated rows, codes far above the
// alphabet and, on a third, row weights. Each start is the rows
// shuffled and cut into groups of k to 2k rows, so MOVE runs. Runs
// without a context go to a local optimum (large tables: 3 passes);
// runs with one stop at node budgets that land mid-pass and at pass
// boundaries, and snapshot every pass. Partition, move
// count, nodes charged, stop reason and every snapshot must be equal.
TEST(ImprovePartitionTest, MatchesReferenceProbes) {
  constexpr ColId kColumns[] = {1, 3, 8, 63, 64, 65, 130};
  size_t ref_moves = 0;
  size_t ref_applied = 0;
  size_t stopped = 0;
  for (uint64_t seed = 1; seed <= 112; ++seed) {
    Rng rng(seed, /*stream=*/0x6c737266ull);  // "lsrf"
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 6));
    const ColId m = kColumns[seed % std::size(kColumns)];
    // Long tables are narrow, so the reference's O(m) probes stay cheap.
    const int max_rows = seed % 2 == 1 ? static_cast<int>(6 * k + 5)
                         : m <= 8      ? 300
                                       : 64;
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
    std::vector<RowId> rows(n);
    std::iota(rows.begin(), rows.end(), RowId{0});
    rng.Shuffle(&rows);
    Partition start;
    for (size_t at = 0; at < n;) {
      const size_t size = k + rng.Uniform(static_cast<uint32_t>(k + 1));
      if (n - at < size + k) {
        start.groups.emplace_back(rows.begin() + at, rows.end());
        break;
      }
      start.groups.emplace_back(rows.begin() + at, rows.begin() + at + size);
      at += size;
    }
    ASSERT_TRUE(IsValidPartition(start, n, k, n));
    const std::string where = "seed=" + std::to_string(seed) +
                              " n=" + std::to_string(n) +
                              " m=" + std::to_string(m) +
                              " k=" + std::to_string(k);

    const LocalSearchOptions options{.max_passes = n > 60 ? 3u : 64u};
    Partition expected = start;
    Partition got = start;
    const size_t expected_applied = ReferenceImprovePartition(
        t, k, options, &expected, nullptr, &ref_moves);
    ref_applied += expected_applied;
    EXPECT_EQ(ImprovePartition(t, k, options, &got), expected_applied)
        << where;
    EXPECT_EQ(got.groups, expected.groups) << where;

    const size_t g = start.groups.size();
    // A pass probes once at its head, once per group in MOVE, then once
    // per group in SWAP: stop at the first probe, mid-MOVE and mid-SWAP
    // of pass 1, at its last probe, at pass 2's head, and in pass 3.
    for (const size_t budget : {size_t{1}, g / 2 + 1, g + g / 2 + 1,
                                2 * g + 1, 2 * g + 2, 5 * g + 3}) {
      RunContext ref_ctx;
      RunContext ctx;
      ref_ctx.set_node_budget(budget);
      ctx.set_node_budget(budget);
      RecordingSink ref_sink;
      RecordingSink sink;
      ref_ctx.ArmCheckpoints(&ref_sink, /*every_polls=*/1);
      ctx.ArmCheckpoints(&sink, /*every_polls=*/1);
      size_t unused = 0;
      Partition ref_cut = start;
      Partition cut = start;
      const size_t cut_applied = ReferenceImprovePartition(
          t, k, LocalSearchOptions{}, &ref_cut, &ref_ctx, &unused);
      EXPECT_EQ(ImprovePartition(t, k, LocalSearchOptions{}, &cut, &ctx),
                cut_applied)
          << where << " budget=" << budget;
      EXPECT_EQ(cut.groups, ref_cut.groups) << where << " budget=" << budget;
      EXPECT_EQ(ctx.nodes_charged(), ref_ctx.nodes_charged())
          << where << " budget=" << budget;
      EXPECT_EQ(ctx.stop_reason(), ref_ctx.stop_reason())
          << where << " budget=" << budget;
      EXPECT_EQ(sink.snapshots, ref_sink.snapshots)
          << where << " budget=" << budget;
      stopped += ref_ctx.stop_reason() == StopReason::kBudget ? 1 : 0;
    }
  }
  // MOVEs and SWAPs were both applied, and budgets cut runs.
  EXPECT_GT(ref_moves, 0u);
  EXPECT_GT(ref_applied, ref_moves);
  EXPECT_GT(stopped, 0u);
}

}  // namespace
}  // namespace kanon
