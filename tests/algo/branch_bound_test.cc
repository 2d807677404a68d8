#include "algo/branch_bound.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algo/cluster_greedy.h"
#include "algo/exact_dp.h"
#include "algo/local_search.h"
#include "algo/registry.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/logging.h"
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

// The search as it was before its nodes went allocation-free: every
// group is rescanned with AnonCost, every Assign allocates its candidate
// vector, and the partition being built is a Partition copied on each
// commit. Kept here as the reference that the production search must
// match node for node. The fault point and the checkpoint write, which
// this test never arms, are left out.
class ReferenceSearch {
 public:
  ReferenceSearch(const Table& table, const DistanceOracle& dm, size_t k,
                  size_t max_nodes, RunContext* ctx)
      : table_(table), k_(k), max_nodes_(max_nodes), ctx_(ctx) {
    const RowId n = table.num_rows();
    assigned_.assign(n, false);
    row_lb_.resize(n);
    for (RowId r = 0; r < n; ++r) {
      row_lb_[r] = (k >= 2) ? dm.KthNearestDistance(
                                  r, static_cast<RowId>(k - 1))
                            : 0;
      remaining_lb_ += row_lb_[r];
    }
  }

  void Run(Partition incumbent, size_t incumbent_cost) {
    best_partition_ = std::move(incumbent);
    best_cost_ = incumbent_cost;
    bound_ = incumbent_cost + 1;
    Assign(0);
  }

  const Partition& best_partition() const { return best_partition_; }
  size_t best_cost() const { return best_cost_; }
  size_t nodes() const { return nodes_; }
  bool truncated() const { return truncated_; }

 private:
  bool NodeBudgetExceeded() {
    ++nodes_;
    if (max_nodes_ != 0 && nodes_ >= max_nodes_) {
      truncated_ = true;
      return true;
    }
    ctx_->ChargeNodes();
    if ((nodes_ & 0x3f) == 0 && ctx_->ShouldStop()) {
      truncated_ = true;
      return true;
    }
    return false;
  }

  void Assign(RowId from_hint) {
    if (truncated_) return;
    if (NodeBudgetExceeded()) return;
    RowId anchor = from_hint;
    const RowId n = table_.num_rows();
    while (anchor < n && assigned_[anchor]) ++anchor;
    if (anchor == n) {
      if (current_cost_ < bound_) {
        best_cost_ = current_cost_;
        bound_ = current_cost_;
        best_partition_ = current_;
      }
      return;
    }
    std::vector<RowId> candidates;
    for (RowId r = anchor + 1; r < n; ++r) {
      if (!assigned_[r]) candidates.push_back(r);
    }
    if (candidates.size() + 1 < k_) return;
    Group group = {anchor};
    Extend(&group, candidates, 0, anchor);
  }

  void Extend(Group* group, const std::vector<RowId>& candidates,
              size_t pos, RowId anchor) {
    if (truncated_) return;
    if (group->size() >= k_) TryGroup(*group, anchor);
    if (group->size() == 2 * k_ - 1) return;
    for (size_t i = pos; i < candidates.size(); ++i) {
      group->push_back(candidates[i]);
      Extend(group, candidates, i + 1, anchor);
      group->pop_back();
      if (truncated_) return;
    }
  }

  void TryGroup(const Group& group, RowId anchor) {
    if (NodeBudgetExceeded()) return;
    const size_t group_cost = AnonCost(table_, group);
    size_t group_lb = 0;
    for (const RowId r : group) group_lb += row_lb_[r];
    const size_t projected =
        current_cost_ + group_cost + (remaining_lb_ - group_lb);
    if (projected >= bound_) return;
    for (const RowId r : group) assigned_[r] = true;
    current_cost_ += group_cost;
    remaining_lb_ -= group_lb;
    current_.groups.push_back(group);
    Assign(anchor + 1);
    current_.groups.pop_back();
    remaining_lb_ += group_lb;
    current_cost_ -= group_cost;
    for (const RowId r : group) assigned_[r] = false;
  }

  const Table& table_;
  const size_t k_;
  const size_t max_nodes_;
  RunContext* const ctx_;
  std::vector<bool> assigned_;
  std::vector<ColId> row_lb_;
  size_t remaining_lb_ = 0;
  Partition current_;
  size_t current_cost_ = 0;
  Partition best_partition_;
  size_t best_cost_ = 0;
  size_t bound_ = 0;
  size_t nodes_ = 0;
  bool truncated_ = false;
};

// BranchBoundAnonymizer::Run around the reference search: the same
// oracle, the same cluster_greedy+local_search seed, the same notes.
AnonymizationResult ReferenceBranchBound(const Table& table, size_t k,
                                         size_t max_nodes, RunContext* ctx) {
  const auto oracle = SharedDistanceOracle(table, ctx);
  KANON_CHECK(oracle.ok());
  ReferenceSearch search(table, **oracle, k, max_nodes, ctx);
  Partition incumbent = ClusterGreedyAnonymizer().Run(table, k, ctx).partition;
  KANON_CHECK(!incumbent.groups.empty());
  ImprovePartition(table, k, LocalSearchOptions{}, &incumbent);
  const size_t incumbent_cost = PartitionCost(table, incumbent);
  search.Run(incumbent, incumbent_cost);
  AnonymizationResult result;
  result.partition = search.best_partition();
  result.cost = PartitionCost(table, result.partition);
  KANON_CHECK_EQ(result.cost, search.best_cost());
  result.notes = "nodes=" + std::to_string(search.nodes()) +
                 (search.truncated() ? " TRUNCATED" : "");
  return result;
}

// The production search against the reference on seeded tables that
// span one to three mask words, weighted and unweighted, with starred
// cells and duplicated rows, at budgets on both sides of the 64-node
// stop stride, given as max_nodes or as the context's budget.
// Partition, cost, notes (nodes= and TRUNCATED) and the nodes charged
// to the context must all be identical.
TEST(BranchBoundTest, MatchesReferenceSearch) {
  constexpr uint32_t kColumns[] = {1, 3, 8, 63, 64, 65, 130};
  constexpr size_t kBudgets[] = {1, 2, 63, 64, 65, 500, 2000};
  constexpr uint64_t kTables = 210;
  size_t truncated = 0;
  size_t finished = 0;
  for (uint64_t seed = 1; seed <= kTables; ++seed) {
    Rng rng(seed, 0x7265666bull);  // "refk"
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 5));
    const uint32_t n = static_cast<uint32_t>(
        rng.UniformInt(std::max(3, static_cast<int>(k)), 28));
    const uint32_t m = kColumns[seed % std::size(kColumns)];
    Table t = UniformTable(
        {.num_rows = n,
         .num_columns = m,
         .alphabet = static_cast<uint32_t>(rng.UniformInt(2, 6))},
        &rng);
    for (RowId r = 1; r < n; ++r) {
      if (!rng.Bernoulli(0.2)) continue;
      const RowId source = rng.Uniform(r);
      for (ColId c = 0; c < m; ++c) t.set(r, c, t.at(source, c));
    }
    for (RowId r = 0; r < n; ++r) {
      for (ColId c = 0; c < m; ++c) {
        if (rng.Bernoulli(0.1)) t.set(r, c, kSuppressedCode);
      }
    }
    if (seed % 3 == 0) {
      std::vector<uint32_t> weights(n);
      for (uint32_t& w : weights) w = rng.Uniform(4) + 1;
      t.SetRowWeights(std::move(weights));
    }
    std::vector<size_t> budgets(std::begin(kBudgets), std::end(kBudgets));
    if (n <= 12) budgets.push_back(0);  // unlimited
    // Even tables give the budget to the context, odd ones as max_nodes.
    const bool on_context = seed % 2 == 0;
    for (const size_t budget : budgets) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n) + " m=" + std::to_string(m) +
                   " k=" + std::to_string(k) +
                   " budget=" + std::to_string(budget) +
                   (on_context ? " (context)" : " (max_nodes)"));
      const size_t max_nodes = on_context ? 0 : budget;
      RunContext ref_ctx;
      RunContext ctx;
      if (on_context) {
        ref_ctx.set_node_budget(budget);
        ctx.set_node_budget(budget);
      }
      const AnonymizationResult ref =
          ReferenceBranchBound(t, k, max_nodes, &ref_ctx);
      const AnonymizationResult got =
          BranchBoundAnonymizer({.max_nodes = max_nodes}).Run(t, k, &ctx);
      EXPECT_EQ(got.partition.groups, ref.partition.groups);
      EXPECT_EQ(got.cost, ref.cost);
      EXPECT_EQ(got.notes, ref.notes);
      EXPECT_EQ(ctx.nodes_charged(), ref_ctx.nodes_charged());
      EXPECT_EQ(ctx.stop_reason(), ref_ctx.stop_reason());
      ++(ref.notes.find("TRUNCATED") == std::string::npos ? finished
                                                           : truncated);
    }
  }
  // Both cut and finished searches must have been compared.
  EXPECT_GT(finished, 0u);
  EXPECT_GT(truncated, 0u);
}

TEST(BranchBoundDeathTest, TooManyRowsDies) {
  Rng rng(5);
  const Table t = UniformTable({.num_rows = 40, .num_columns = 3}, &rng);
  BranchBoundAnonymizer algo;
  EXPECT_DEATH(algo.Run(t, 2), "exponential in n");
}

}  // namespace
}  // namespace kanon
