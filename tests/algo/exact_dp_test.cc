#include "algo/exact_dp.h"

#include "core/bounds.h"
#include "core/cost.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

Table Rows(const std::vector<std::vector<std::string>>& rows) {
  Schema schema;
  for (size_t c = 0; c < rows[0].size(); ++c) {
    schema.AddAttribute("a" + std::to_string(c));
  }
  Table t(std::move(schema));
  for (const auto& row : rows) t.AppendStringRow(row);
  return t;
}

TEST(ExactDpTest, AllIdenticalRowsCostZero) {
  const Table t = Rows({{"a", "b"}, {"a", "b"}, {"a", "b"}, {"a", "b"}});
  ExactDpAnonymizer algo;
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_EQ(result.cost, 0u);
}

TEST(ExactDpTest, TwoObviousPairs) {
  // Rows 0,1 identical; rows 2,3 identical; OPT for k=2 is 0.
  const Table t = Rows({{"a", "b"}, {"a", "b"}, {"x", "y"}, {"x", "y"}});
  ExactDpAnonymizer algo;
  EXPECT_EQ(algo.Run(t, 2).cost, 0u);
}

TEST(ExactDpTest, ForcedSuppressionCost) {
  // Two rows differing in one column: k=2 forces both cells of that
  // column starred -> cost 2.
  const Table t = Rows({{"a", "b"}, {"a", "c"}});
  ExactDpAnonymizer algo;
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_EQ(result.cost, 2u);
}

TEST(ExactDpTest, PicksCheaperPairing) {
  // Rows: A=(a,b), B=(a,c), C=(z,b). Pair A-B costs 2 (one column),
  // pair A-C costs 2; any pairing leaves a singleton -> k=2 needs one
  // group of 3 (cost 3*2=6) or... n=3, k=2 so the only valid partition is
  // one group of 3: cost 6? No — groups must have >= 2 members, so with
  // n=3 the single group {A,B,C} is forced; both columns disagree.
  const Table t = Rows({{"a", "b"}, {"a", "c"}, {"z", "b"}});
  ExactDpAnonymizer algo;
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_EQ(result.cost, 6u);
  EXPECT_EQ(result.partition.num_groups(), 1u);
}

TEST(ExactDpTest, SplitsWhenBeneficial) {
  // Two tight pairs far apart: OPT pairs them rather than one group.
  const Table t = Rows({{"a", "a", "a"},
                        {"a", "a", "b"},
                        {"z", "z", "z"},
                        {"z", "z", "w"}});
  ExactDpAnonymizer algo;
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_EQ(result.cost, 4u);  // one starred column per pair
  EXPECT_EQ(result.partition.num_groups(), 2u);
}

TEST(ExactDpTest, KEqualsNSingleGroup) {
  Rng rng(1);
  const Table t = UniformTable({.num_rows = 5, .num_columns = 4}, &rng);
  ExactDpAnonymizer algo;
  const auto result = ValidateResult(t, 5, algo.Run(t, 5));
  EXPECT_EQ(result.partition.num_groups(), 1u);
  Group all = {0, 1, 2, 3, 4};
  EXPECT_EQ(result.cost, AnonCost(t, all));
}

TEST(ExactDpTest, KOneIsFree) {
  Rng rng(2);
  const Table t = UniformTable({.num_rows = 6, .num_columns = 4}, &rng);
  ExactDpAnonymizer algo;
  EXPECT_EQ(algo.Run(t, 1).cost, 0u);
}

TEST(ExactDpTest, RespectsKnnLowerBound) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 10, .num_columns = 5, .alphabet = 3}, &rng);
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  ExactDpAnonymizer algo;
  for (const size_t k : {2u, 3u}) {
    EXPECT_GE(algo.Run(t, k).cost, KnnLowerBound(t, *dm, k));
  }
}

TEST(ExactDpTest, OptimalIsMinimalOverRandomPartitions) {
  // Property: no random feasible partition beats the DP optimum.
  Rng rng(4);
  const uint32_t n = 10;
  const Table t = UniformTable(
      {.num_rows = n, .num_columns = 5, .alphabet = 3}, &rng);
  ExactDpAnonymizer algo;
  const size_t opt = algo.Run(t, 2).cost;
  for (int trial = 0; trial < 30; ++trial) {
    Group all(n);
    for (RowId r = 0; r < n; ++r) all[r] = r;
    rng.Shuffle(&all);
    Partition p;
    p.groups = {all};
    p = SplitLargeGroups(p, 2);
    EXPECT_LE(opt, PartitionCost(t, p));
  }
}

TEST(ExactDpTest, MonotoneInK) {
  // OPT(k) is non-decreasing in k (larger groups are a superset
  // constraint).
  Rng rng(5);
  const Table t = UniformTable(
      {.num_rows = 9, .num_columns = 5, .alphabet = 4}, &rng);
  ExactDpAnonymizer algo;
  size_t prev = 0;
  for (size_t k = 1; k <= 4; ++k) {
    const size_t cost = algo.Run(t, k).cost;
    EXPECT_GE(cost, prev);
    prev = cost;
  }
}

TEST(ExactDpDeathTest, TooManyRowsDies) {
  Rng rng(6);
  const Table t = UniformTable({.num_rows = 30, .num_columns = 3}, &rng);
  ExactDpAnonymizer algo;
  EXPECT_DEATH(algo.Run(t, 2), "exponential in n");
}

}  // namespace
}  // namespace kanon
