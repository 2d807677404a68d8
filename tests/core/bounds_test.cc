#include "core/bounds.h"

#include "core/cost.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

TEST(KnnLowerBoundTest, ZeroForKOne) {
  Rng rng(1);
  const Table t = UniformTable({.num_rows = 6, .num_columns = 4}, &rng);
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  EXPECT_EQ(KnnLowerBound(t, *dm, 1), 0u);
}

TEST(KnnLowerBoundTest, ZeroWhenEveryRowDuplicated) {
  Schema schema({"a", "b"});
  Table t(std::move(schema));
  for (int i = 0; i < 3; ++i) {
    t.AppendStringRow({"x", "y"});
    t.AppendStringRow({"x", "y"});
  }
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  EXPECT_EQ(KnnLowerBound(t, *dm, 2), 0u);
}

TEST(KnnLowerBoundTest, PositiveForDistinctRows) {
  Schema schema({"a"});
  Table t(std::move(schema));
  t.AppendStringRow({"p"});
  t.AppendStringRow({"q"});
  t.AppendStringRow({"r"});
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  // Every row's nearest other row differs in the single column.
  EXPECT_EQ(KnnLowerBound(t, *dm, 2), 3u);
}

// Property: the kNN bound never exceeds the cost of any valid partition
// (we use chunk partitions as arbitrary feasible solutions).
class KnnBoundPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnnBoundPropertyTest, BoundBelowFeasibleCosts) {
  Rng rng(GetParam());
  const uint32_t n = 14;
  const Table t = ClusteredTable(
      {.num_rows = n, .num_columns = 6, .alphabet = 5, .num_clusters = 3,
       .noise_flips = 1},
      &rng);
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  for (const size_t k : {2u, 3u, 4u}) {
    const size_t lb = KnnLowerBound(t, *dm, k);
    for (int trial = 0; trial < 5; ++trial) {
      Group all(n);
      for (RowId r = 0; r < n; ++r) all[r] = r;
      rng.Shuffle(&all);
      Partition p;
      p.groups = {all};
      p = SplitLargeGroups(p, k);
      EXPECT_LE(lb, PartitionCost(t, p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnBoundPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(HalfDiameterVolumeBoundTest, MatchesLemma41LeftSide) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 10, .num_columns = 5, .alphabet = 3}, &rng);
  Partition p;
  p.groups = {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}};
  // Lemma 4.1: |S| d(S) / 2 <= ANON(S), summed.
  EXPECT_LE(HalfDiameterVolumeBound(t, p), PartitionCost(t, p));
}

TEST(DiameterVolumeUpperBoundTest, MatchesLemma41RightSide) {
  Rng rng(4);
  const Table t = UniformTable(
      {.num_rows = 12, .num_columns = 6, .alphabet = 3}, &rng);
  Partition p;
  p.groups = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}};
  // Corrected Lemma 4.1: ANON(S) <= |S| (|S|-1) d(S), summed.
  EXPECT_GE(DiameterVolumeUpperBound(t, p), PartitionCost(t, p));
}

TEST(AsPrintedDiameterUpperBoundTest, CanBeViolated) {
  // The one-hot counterexample from DESIGN.md: the as-printed bound
  // |S| d(S) falls below the true ANON cost.
  Schema schema({"c0", "c1", "c2"});
  Table t(std::move(schema));
  t.AppendStringRow({"1", "0", "0"});
  t.AppendStringRow({"0", "1", "0"});
  t.AppendStringRow({"0", "0", "1"});
  Partition p;
  p.groups = {{0, 1, 2}};
  EXPECT_LT(AsPrintedDiameterUpperBound(t, p), PartitionCost(t, p));
  EXPECT_GE(DiameterVolumeUpperBound(t, p), PartitionCost(t, p));
}

// Property: the Lemma 4.1 sandwich holds on random partitions.
class Lemma41SandwichTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma41SandwichTest, HoldsOnRandomPartitions) {
  Rng rng(GetParam());
  const uint32_t n = 12;
  const Table t = UniformTable(
      {.num_rows = n, .num_columns = 7, .alphabet = 4}, &rng);
  Group all(n);
  for (RowId r = 0; r < n; ++r) all[r] = r;
  rng.Shuffle(&all);
  Partition p;
  p.groups = {all};
  p = SplitLargeGroups(p, 3);
  const size_t cost = PartitionCost(t, p);
  EXPECT_LE(HalfDiameterVolumeBound(t, p), cost);
  EXPECT_GE(DiameterVolumeUpperBound(t, p), cost);  // corrected bound
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma41SandwichTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace kanon
