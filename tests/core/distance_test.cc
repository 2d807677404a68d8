#include "core/distance.h"

#include <vector>

#include "core/distance_oracle.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

Table CodesTable(const std::vector<std::vector<std::string>>& rows) {
  Schema schema;
  for (size_t c = 0; c < rows[0].size(); ++c) {
    schema.AddAttribute("a" + std::to_string(c));
  }
  Table t(std::move(schema));
  for (const auto& row : rows) t.AppendStringRow(row);
  return t;
}

TEST(HammingDistanceTest, PaperExample) {
  // Section 4 example: 1010 and 0110 differ in two coordinates.
  const Table t = CodesTable({{"1", "0", "1", "0"},
                              {"1", "1", "1", "0"},
                              {"0", "1", "1", "0"}});
  EXPECT_EQ(RowDistance(t, 0, 2), 2u);
  EXPECT_EQ(RowDistance(t, 0, 1), 1u);
  EXPECT_EQ(RowDistance(t, 1, 2), 1u);
}

TEST(HammingDistanceTest, IdentityOfIndiscernibles) {
  const Table t = CodesTable({{"a", "b"}, {"a", "b"}, {"x", "b"}});
  EXPECT_EQ(RowDistance(t, 0, 1), 0u);
  EXPECT_GT(RowDistance(t, 0, 2), 0u);
}

TEST(HammingDistanceTest, Symmetry) {
  Rng rng(1);
  const Table t = UniformTable({.num_rows = 10, .num_columns = 6}, &rng);
  for (RowId a = 0; a < t.num_rows(); ++a) {
    for (RowId b = 0; b < t.num_rows(); ++b) {
      EXPECT_EQ(RowDistance(t, a, b), RowDistance(t, b, a));
    }
  }
}

// Property test over random tables: d is a metric (the paper relies on
// the triangle inequality in Lemma 4.2/4.3 and in Reduce).
class MetricPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricPropertyTest, TriangleInequality) {
  Rng rng(GetParam());
  const Table t = UniformTable(
      {.num_rows = 12, .num_columns = 7, .alphabet = 3}, &rng);
  for (RowId a = 0; a < t.num_rows(); ++a) {
    for (RowId b = 0; b < t.num_rows(); ++b) {
      for (RowId c = 0; c < t.num_rows(); ++c) {
        EXPECT_LE(RowDistance(t, a, c),
                  RowDistance(t, a, b) + RowDistance(t, b, c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SetDiameterTest, EmptyAndSingleton) {
  const Table t = CodesTable({{"a", "b"}});
  EXPECT_EQ(SetDiameter(t, std::vector<RowId>{}), 0u);
  EXPECT_EQ(SetDiameter(t, std::vector<RowId>{0}), 0u);
}

TEST(SetDiameterTest, PaperExampleGroupDiameter) {
  // The 3-group {1010, 1110, 0110} of Section 4 has diameter 2.
  const Table t = CodesTable({{"1", "0", "1", "0"},
                              {"1", "1", "1", "0"},
                              {"0", "1", "1", "0"}});
  const std::vector<RowId> all = {0, 1, 2};
  EXPECT_EQ(SetDiameter(t, all), 2u);
}

// The oracle's dense all-pairs table.
TEST(DistanceMatrixTest, MatchesDirectComputation) {
  Rng rng(2);
  const Table t = UniformTable({.num_rows = 15, .num_columns = 5}, &rng);
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  EXPECT_EQ(dm->num_rows(), 15u);
  for (RowId a = 0; a < t.num_rows(); ++a) {
    EXPECT_EQ(dm->at(a, a), 0u);
    for (RowId b = 0; b < t.num_rows(); ++b) {
      EXPECT_EQ(dm->at(a, b), RowDistance(t, a, b));
    }
  }
}

TEST(DistanceMatrixTest, DiameterMatchesSetDiameter) {
  Rng rng(3);
  const Table t = UniformTable({.num_rows = 12, .num_columns = 6}, &rng);
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  const std::vector<RowId> rows = {1, 4, 7, 9};
  EXPECT_EQ(dm->Diameter(rows), SetDiameter(t, rows));
}

TEST(DistanceMatrixTest, KthNearestIsMonotone) {
  Rng rng(4);
  const Table t = UniformTable({.num_rows = 10, .num_columns = 8}, &rng);
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (RowId j = 1; j + 1 < t.num_rows(); ++j) {
      EXPECT_LE(dm->KthNearestDistance(r, j),
                dm->KthNearestDistance(r, j + 1));
    }
  }
}

TEST(DistanceMatrixTest, FirstNearestOfDuplicateIsZero) {
  const Table t = CodesTable({{"a", "b"}, {"a", "b"}, {"c", "d"}});
  const auto dm = *DistanceOracle::Create(t, {}, nullptr);
  EXPECT_EQ(dm->KthNearestDistance(0, 1), 0u);  // row 1 is identical
  EXPECT_EQ(dm->KthNearestDistance(2, 1), 2u);  // nearest differs fully
}

}  // namespace
}  // namespace kanon
