#include "algo/ball_cover.h"

#include "core/anonymity.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/parallel.h"
#include "util/random.h"

namespace kanon {
namespace {

TEST(BallCoverTest, NamesReflectMode) {
  EXPECT_EQ(BallCoverAnonymizer().name(), "ball_cover");
  BallCoverOptions radius;
  radius.family_mode = BallFamilyMode::kRadius;
  EXPECT_EQ(BallCoverAnonymizer(radius).name(), "ball_cover_radius");
  BallCoverOptions pair;
  pair.family_mode = BallFamilyMode::kPairwise;
  EXPECT_EQ(BallCoverAnonymizer(pair).name(), "ball_cover_pairwise");
}

TEST(BallCoverTest, ValidOnRandomTable) {
  Rng rng(1);
  const Table t = UniformTable(
      {.num_rows = 20, .num_columns = 6, .alphabet = 3}, &rng);
  BallCoverAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_TRUE(IsValidPartition(result.partition, 20, 3, 5));
}

TEST(BallCoverTest, PerfectClustersCostZero) {
  Rng rng(2);
  ClusteredTableOptions opt;
  opt.num_rows = 16;
  opt.num_clusters = 4;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  BallCoverAnonymizer algo;
  const auto result = ValidateResult(t, 4, algo.Run(t, 4));
  EXPECT_EQ(result.cost, 0u);
}

TEST(BallCoverTest, AllModesProduceValidResults) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 15, .num_columns = 5, .alphabet = 3}, &rng);
  for (const BallFamilyMode mode :
       {BallFamilyMode::kRadius, BallFamilyMode::kPairwise,
        BallFamilyMode::kAuto}) {
    for (const BallWeightMode weight :
         {BallWeightMode::kExactDiameter, BallWeightMode::kTwiceRadius}) {
      BallCoverOptions opt;
      opt.family_mode = mode;
      opt.weight_mode = weight;
      BallCoverAnonymizer algo(opt);
      ValidateResult(t, 3, algo.Run(t, 3));
    }
  }
}

TEST(BallCoverTest, RadiusAndPairwiseBothComplete) {
  // Pairwise family contains the ball of radius d(c, farthest) = all rows,
  // radius family the ball of radius m; both always cover.
  Rng rng(4);
  const Table t = UniformTable(
      {.num_rows = 9, .num_columns = 4, .alphabet = 9}, &rng);
  for (const BallFamilyMode mode :
       {BallFamilyMode::kRadius, BallFamilyMode::kPairwise}) {
    BallCoverOptions opt;
    opt.family_mode = mode;
    BallCoverAnonymizer algo(opt);
    const auto result = ValidateResult(t, 4, algo.Run(t, 4));
    EXPECT_EQ(result.partition.TotalMembers(), 9u);
  }
}

TEST(BallCoverTest, HandlesDuplicateHeavyTables) {
  Schema schema({"a", "b"});
  Table t(std::move(schema));
  for (int i = 0; i < 5; ++i) t.AppendStringRow({"x", "y"});
  for (int i = 0; i < 5; ++i) t.AppendStringRow({"p", "q"});
  BallCoverAnonymizer algo;
  const auto result = ValidateResult(t, 5, algo.Run(t, 5));
  EXPECT_EQ(result.cost, 0u);  // two pure duplicate balls
}

TEST(BallCoverTest, KEqualsNWorks) {
  Rng rng(5);
  const Table t = UniformTable({.num_rows = 6, .num_columns = 4}, &rng);
  BallCoverAnonymizer algo;
  const auto result = ValidateResult(t, 6, algo.Run(t, 6));
  EXPECT_EQ(result.partition.num_groups(), 1u);
}

TEST(BallCoverTest, ScalesToHundredsOfRows) {
  Rng rng(6);
  const Table t = UniformTable(
      {.num_rows = 300, .num_columns = 10, .alphabet = 4}, &rng);
  BallCoverAnonymizer algo;
  const auto result = ValidateResult(t, 5, algo.Run(t, 5));
  EXPECT_TRUE(IsValidPartition(result.partition, 300, 5, 9));
}

TEST(BallCoverTest, ParallelAndSerialRunsIdentical) {
  Rng rng(7);
  const Table t = UniformTable(
      {.num_rows = 120, .num_columns = 8, .alphabet = 4}, &rng);
  const unsigned previous = GetParallelism();
  SetParallelism(1);
  BallCoverAnonymizer serial_algo;
  const auto serial = serial_algo.Run(t, 4);
  SetParallelism(8);
  BallCoverAnonymizer parallel_algo;
  const auto parallel = parallel_algo.Run(t, 4);
  SetParallelism(previous);
  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.partition.ToString(), parallel.partition.ToString());
}

// Property sweep: valid partitions across (n, k, mode).
// gtest names each case by the raw bytes of its parameter, so the struct
// must have no padding: padding bytes are uninitialised and would make the
// case names differ from one build to the next.
struct BallCase {
  uint64_t seed;
  uint64_t n;
  size_t k;
};
static_assert(sizeof(BallCase) ==
              sizeof(uint64_t) + sizeof(uint64_t) + sizeof(size_t));

class BallCoverPropertyTest : public ::testing::TestWithParam<BallCase> {};

TEST_P(BallCoverPropertyTest, ValidAcrossConfigs) {
  const BallCase c = GetParam();
  Rng rng(c.seed);
  const auto n = static_cast<uint32_t>(c.n);
  const Table t = UniformTable(
      {.num_rows = n, .num_columns = 6, .alphabet = 3}, &rng);
  BallCoverAnonymizer algo;
  const auto result = ValidateResult(t, c.k, algo.Run(t, c.k));
  EXPECT_TRUE(IsValidPartition(result.partition, n, c.k, 2 * c.k - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BallCoverPropertyTest,
    ::testing::Values(BallCase{1, 10, 2}, BallCase{2, 10, 3},
                      BallCase{3, 25, 2}, BallCase{4, 25, 5},
                      BallCase{5, 40, 3}, BallCase{6, 40, 6},
                      BallCase{7, 60, 4}, BallCase{8, 17, 2}));

}  // namespace
}  // namespace kanon
