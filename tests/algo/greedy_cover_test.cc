#include "algo/greedy_cover.h"

#include <cmath>
#include <limits>

#include "core/anonymity.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

TEST(GreedyCoverTest, FamilySizeSmallCases) {
  // n=4, k=2: C(4,2)+C(4,3) = 6+4 = 10.
  EXPECT_EQ(GreedyCoverAnonymizer::FamilySize(4, 2), 10u);
  // n=5, k=1: C(5,1) = 5.
  EXPECT_EQ(GreedyCoverAnonymizer::FamilySize(5, 1), 5u);
  // n=6, k=3: C(6,3)+C(6,4)+C(6,5) = 20+15+6 = 41.
  EXPECT_EQ(GreedyCoverAnonymizer::FamilySize(6, 3), 41u);
}

TEST(GreedyCoverTest, FamilySizeSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(GreedyCoverAnonymizer::FamilySize(200, 30),
            std::numeric_limits<size_t>::max());
}

TEST(GreedyCoverTest, ValidOnRandomTable) {
  Rng rng(1);
  const Table t = UniformTable(
      {.num_rows = 10, .num_columns = 5, .alphabet = 3}, &rng);
  GreedyCoverAnonymizer algo;
  const auto result = ValidateResult(t, 2, algo.Run(t, 2));
  EXPECT_TRUE(IsValidPartition(result.partition, 10, 2, 3));
}

TEST(GreedyCoverTest, KOneYieldsZeroCost) {
  Rng rng(2);
  const Table t = UniformTable({.num_rows = 6, .num_columns = 4}, &rng);
  GreedyCoverAnonymizer algo;
  const auto result = ValidateResult(t, 1, algo.Run(t, 1));
  EXPECT_EQ(result.cost, 0u);  // singletons suppress nothing
}

TEST(GreedyCoverTest, PerfectClustersCostZero) {
  // Clusters of exact duplicates of size >= k: greedy must find the free
  // groups (diameter 0 -> ratio 0).
  Rng rng(3);
  ClusteredTableOptions opt;
  opt.num_rows = 12;
  opt.num_clusters = 4;  // 3 rows per cluster
  opt.noise_flips = 0;
  opt.num_columns = 5;
  const Table t = ClusteredTable(opt, &rng);
  GreedyCoverAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.cost, 0u);
}

TEST(GreedyCoverTest, AnonymizedTableIsKAnonymous) {
  Rng rng(4);
  const Table t = UniformTable(
      {.num_rows = 12, .num_columns = 4, .alphabet = 2}, &rng);
  GreedyCoverAnonymizer algo;
  const auto result = algo.Run(t, 3);
  const Suppressor s = result.MakeSuppressor(t);
  EXPECT_TRUE(IsKAnonymizer(s, t, 3));
  EXPECT_EQ(s.Stars(), result.cost);
}

TEST(GreedyCoverTest, NotesRecordFamilySize) {
  Rng rng(5);
  const Table t = UniformTable({.num_rows = 8, .num_columns = 3}, &rng);
  GreedyCoverAnonymizer algo;
  const auto result = algo.Run(t, 2);
  EXPECT_NE(result.notes.find("family="), std::string::npos);
}

TEST(GreedyCoverDeathTest, RefusesHugeFamily) {
  Rng rng(6);
  const Table t = UniformTable({.num_rows = 40, .num_columns = 3}, &rng);
  GreedyCoverOptions opt;
  opt.max_family_size = 1000;
  GreedyCoverAnonymizer algo(opt);
  EXPECT_DEATH(algo.Run(t, 4), "family C too large");
}

TEST(GreedyCoverDeathTest, FewerRowsThanKDies) {
  Rng rng(7);
  const Table t = UniformTable({.num_rows = 2, .num_columns = 3}, &rng);
  GreedyCoverAnonymizer algo;
  EXPECT_DEATH(algo.Run(t, 3), "Check failed");
}

// Property: on random instances the greedy-cover algorithm respects the
// Theorem 4.1 ratio against the diameter-sum lower bound
// (k/2) * dPi <= OPT (we validate against OPT separately in
// approx_ratio_test.cc; here we check structural validity broadly).
class GreedyCoverPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyCoverPropertyTest, AlwaysValidAndKAnonymous) {
  Rng rng(GetParam());
  const uint32_t n = 8 + GetParam() % 5;
  const size_t k = 2 + GetParam() % 2;
  const Table t = UniformTable(
      {.num_rows = n, .num_columns = 5, .alphabet = 3}, &rng);
  GreedyCoverAnonymizer algo;
  const auto result = ValidateResult(t, k, algo.Run(t, k));
  EXPECT_TRUE(IsValidPartition(result.partition, n, k, 2 * k - 1));
  EXPECT_LE(result.cost,
            static_cast<size_t>(n) * t.num_columns());  // never worse than all-stars
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyCoverPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace kanon
