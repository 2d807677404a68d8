#include "algo/branch_bound.h"

#include <memory>
#include <string>

#include "algo/exact_dp.h"
#include "algo/registry.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

TEST(BranchBoundTest, ValidOnRandomTable) {
  Rng rng(1);
  const Table t = UniformTable(
      {.num_rows = 10, .num_columns = 5, .alphabet = 3}, &rng);
  BranchBoundAnonymizer algo;
  ValidateResult(t, 2, algo.Run(t, 2));
}

// The central cross-check: branch & bound and the subset DP are
// independent exact algorithms; they must agree on OPT everywhere.
struct CrossCase {
  uint64_t seed;
  uint32_t n;
  uint32_t m;
  uint32_t alphabet;
  size_t k;
};

class ExactCrossCheckTest : public ::testing::TestWithParam<CrossCase> {};

TEST_P(ExactCrossCheckTest, AgreesWithExactDp) {
  const CrossCase c = GetParam();
  Rng rng(c.seed);
  const Table t = UniformTable(
      {.num_rows = c.n, .num_columns = c.m, .alphabet = c.alphabet}, &rng);
  ExactDpAnonymizer dp;
  BranchBoundAnonymizer bb;
  const auto dp_result = ValidateResult(t, c.k, dp.Run(t, c.k));
  const auto bb_result = ValidateResult(t, c.k, bb.Run(t, c.k));
  EXPECT_EQ(dp_result.cost, bb_result.cost);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactCrossCheckTest,
    ::testing::Values(CrossCase{1, 8, 4, 2, 2}, CrossCase{2, 8, 4, 3, 3},
                      CrossCase{3, 9, 5, 4, 2}, CrossCase{4, 9, 3, 2, 4},
                      CrossCase{5, 10, 5, 3, 2}, CrossCase{6, 10, 4, 4, 3},
                      CrossCase{7, 11, 6, 3, 2}, CrossCase{8, 12, 4, 2, 3},
                      CrossCase{9, 12, 5, 5, 2}, CrossCase{10, 7, 7, 3, 2},
                      CrossCase{11, 13, 4, 3, 2},
                      CrossCase{12, 10, 6, 2, 5}));

// Budgeted runs: a search the budget did not cut (no TRUNCATED in the
// notes) has proven its answer optimal, so it must match the DP; a cut
// one still holds its seed or better.
TEST(BranchBoundBudgetTest, UntruncatedBudgetedRunsMatchExactDp) {
  size_t finished = 0;
  size_t truncated = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const uint32_t n = 8 + static_cast<uint32_t>(seed % 9);  // 8..16
    const Table t = UniformTable(
        {.num_rows = n, .num_columns = 4, .alphabet = 3}, &rng);
    for (const size_t k : {2u, 3u}) {
      const size_t opt = ExactDpAnonymizer().Run(t, k).cost;
      const size_t seed_cost =
          MakeAnonymizer("cluster_greedy+local_search")->Run(t, k).cost;
      for (const size_t budget : {50u, 300u, 2000u, 20000u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " budget=" + std::to_string(budget));
        BranchBoundAnonymizer bb({.max_nodes = budget});
        const auto result = ValidateResult(t, k, bb.Run(t, k));
        EXPECT_LE(result.cost, seed_cost);
        if (result.notes.find("TRUNCATED") == std::string::npos) {
          ++finished;
          EXPECT_EQ(result.cost, opt);
        } else {
          ++truncated;
          EXPECT_GE(result.cost, opt);
        }
      }
    }
  }
  // Both branches of the check must have been exercised.
  EXPECT_GT(finished, 0u);
  EXPECT_GT(truncated, 0u);
}

// The anytime contract on the service's own request shape: at the
// kanon_load node budget, branch_bound and the resilient chain never
// answer worse than the cluster_greedy+local_search heuristic (run
// unbudgeted) on any table of the load pool (24x3, alphabet 4, k=3,
// the same generator and seed as kanon_load) or of an 18-row pool.
TEST(BranchBoundBudgetTest, NeverWorseThanHeuristicOnLoadPool) {
  struct Pool {
    uint32_t rows;
    size_t tables;
    uint64_t stream;
  };
  constexpr uint64_t kBudget = 2000;
  constexpr size_t kK = 3;
  for (const Pool pool : {Pool{24, 256, 0x6c6f6164ull},  // "load"
                          Pool{18, 128, 18}}) {
    Rng rng(42, pool.stream);
    size_t bb_losses = 0;
    size_t chain_losses = 0;
    for (size_t i = 0; i < pool.tables; ++i) {
      const Table t = UniformTable(
          {.num_rows = pool.rows, .num_columns = 3, .alphabet = 4}, &rng);
      RunContext heuristic_ctx;
      const size_t heuristic =
          MakeAnonymizer("cluster_greedy+local_search")
              ->Run(t, kK, &heuristic_ctx)
              .cost;
      for (const std::string algo : {"branch_bound", "resilient"}) {
        RunContext ctx;
        ctx.set_node_budget(kBudget);
        const auto result =
            ValidateResult(t, kK, MakeAnonymizer(algo)->Run(t, kK, &ctx));
        if (result.cost > heuristic) {
          ++(algo == "branch_bound" ? bb_losses : chain_losses);
        }
      }
    }
    EXPECT_EQ(bb_losses, 0u) << pool.rows << "-row pool";
    EXPECT_EQ(chain_losses, 0u) << pool.rows << "-row pool";
  }
}

TEST(BranchBoundTest, ClusteredInstancesFast) {
  Rng rng(2);
  ClusteredTableOptions opt;
  opt.num_rows = 15;
  opt.num_clusters = 5;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  BranchBoundAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.cost, 0u);  // pure clusters of size 3
}

TEST(BranchBoundTest, NodeCapReturnsValidIncumbent) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 14, .num_columns = 5, .alphabet = 4}, &rng);
  BranchBoundOptions opt;
  opt.max_nodes = 5;
  BranchBoundAnonymizer algo(opt);
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_NE(result.notes.find("TRUNCATED"), std::string::npos);
}

TEST(BranchBoundTest, NotesCountNodes) {
  Rng rng(4);
  const Table t = UniformTable({.num_rows = 8, .num_columns = 4}, &rng);
  BranchBoundAnonymizer algo;
  const auto result = algo.Run(t, 2);
  EXPECT_NE(result.notes.find("nodes="), std::string::npos);
}

TEST(BranchBoundDeathTest, TooManyRowsDies) {
  Rng rng(5);
  const Table t = UniformTable({.num_rows = 40, .num_columns = 3}, &rng);
  BranchBoundAnonymizer algo;
  EXPECT_DEATH(algo.Run(t, 2), "exponential in n");
}

}  // namespace
}  // namespace kanon
