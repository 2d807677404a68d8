#include "core/distance_oracle.h"

#include <vector>

#include "core/bounds.h"
#include "core/distance.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

Table MakeTable(RowId n, ColId m, uint64_t seed) {
  Rng rng(seed);
  return UniformTable({.num_rows = n, .num_columns = m, .alphabet = 4},
                      &rng);
}

// dense_threshold 0 forces the on-demand representation.
constexpr DistanceOracleOptions kOnDemand{.dense_threshold = 0};

TEST(DistanceOracleTest, DensePathMatchesMatrix) {
  const Table t = MakeTable(24, 6, 1);
  RunContext ctx;
  const auto oracle =
      DistanceOracle::Create(t, DistanceOracleOptions{}, &ctx);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE((*oracle)->dense());
  for (RowId a = 0; a < t.num_rows(); ++a) {
    for (RowId b = 0; b < t.num_rows(); ++b) {
      EXPECT_EQ((*oracle)->at(a, b), RowDistance(t, a, b));
    }
  }
}

TEST(DistanceOracleTest, OnDemandPathMatchesMatrixExactly) {
  const Table t = MakeTable(40, 5, 2);
  RunContext ctx;
  const auto dense = DistanceOracle::Create(t, {}, &ctx);
  const auto oracle = DistanceOracle::Create(t, kOnDemand, &ctx);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_FALSE((*oracle)->dense());
  for (RowId a = 0; a < t.num_rows(); ++a) {
    for (RowId b = 0; b < t.num_rows(); ++b) {
      EXPECT_EQ((*oracle)->at(a, b), (*dense)->at(a, b));
    }
  }
  // Diameter and k-NN answers agree with the dense table too.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RowId> rows;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      if (rng.Uniform(3) == 0) rows.push_back(r);
    }
    EXPECT_EQ((*oracle)->Diameter(rows), (*dense)->Diameter(rows));
  }
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (RowId j = 1; j < 5; ++j) {
      EXPECT_EQ((*oracle)->KthNearestDistance(r, j),
                (*dense)->KthNearestDistance(r, j));
    }
  }
  // Only the dense table is charged to the budget.
  EXPECT_EQ(ctx.peak_memory_bytes(), 40 * 40 * sizeof(ColId));
}

TEST(DistanceOracleTest, KnnLowerBoundAgreesAcrossRepresentations) {
  const Table t = MakeTable(30, 6, 4);
  RunContext ctx;
  const auto dense = DistanceOracle::Create(t, {}, &ctx);
  const auto oracle = DistanceOracle::Create(t, kOnDemand, &ctx);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(oracle.ok());
  for (const size_t k : {2u, 3u, 5u}) {
    EXPECT_EQ(KnnLowerBound(t, **oracle, k), KnnLowerBound(t, **dense, k));
  }
}

// Regression for the historical crash path: a table bigger than the
// memory budget must come back as a typed kResourceExhausted status
// (latched on the context), never a bad_alloc or an abort.
TEST(DistanceOracleTest, MatrixOverBudgetIsTypedError) {
  const Table t = MakeTable(64, 4, 5);
  RunContext ctx;
  ctx.set_memory_limit_bytes(1024);  // far below 64*64*4 bytes
  const auto oracle = DistanceOracle::Create(t, {}, &ctx);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
}

TEST(DistanceOracleTest, OracleOverBudgetIsTypedError) {
  const Table t = MakeTable(64, 4, 6);
  RunContext ctx;
  ctx.set_memory_limit_bytes(1024);
  const auto oracle = SharedDistanceOracle(t, &ctx);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
}

TEST(DistanceOracleTest, MatrixLeaseReleasesOnDestruction) {
  const Table t = MakeTable(32, 4, 7);
  const size_t bytes = 32 * 32 * sizeof(ColId);
  RunContext ctx;
  ctx.set_memory_limit_bytes(bytes);  // exactly one table fits
  {
    const auto oracle = DistanceOracle::Create(t, {}, &ctx);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_EQ(ctx.peak_memory_bytes(), bytes);
    // A second table cannot fit while the first holds its lease...
    EXPECT_FALSE(ctx.TryChargeMemory(bytes));
  }
  // ...but fits again once the lease is released. (kBudget stays
  // latched from the probe above; only the accounting is under test.)
  EXPECT_TRUE(ctx.TryChargeMemory(bytes));
  ctx.ReleaseMemory(bytes);
}

TEST(DistanceOracleTest, CancelledBuildReturnsStopStatus) {
  const Table t = MakeTable(48, 4, 8);
  RunContext ctx;
  ctx.RequestCancel();
  const auto oracle = DistanceOracle::Create(t, {}, &ctx);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kCancelled);
}

TEST(DistanceOracleTest, SharedOracleIsReusedAcrossCallers) {
  const Table t = MakeTable(20, 5, 9);
  RunContext ctx;
  const auto first = SharedDistanceOracle(t, &ctx);
  const auto second = SharedDistanceOracle(t, &ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get()) << "second call must reuse";

  // A child stage context sees work cached on its parent.
  RunContext child(&ctx);
  const auto inherited = SharedDistanceOracle(t, &child);
  ASSERT_TRUE(inherited.ok());
  EXPECT_EQ(inherited->get(), first->get());

  // A different table gets its own oracle.
  const Table other = MakeTable(20, 5, 10);
  const auto fresh = SharedDistanceOracle(other, &ctx);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->get(), first->get());
}

TEST(DistanceOracleTest, StaleScratchSlotIsRebuilt) {
  RunContext ctx;
  Table t = MakeTable(12, 4, 11);
  const auto before = SharedDistanceOracle(t, &ctx);
  ASSERT_TRUE(before.ok());
  const RowId n_before = (*before)->num_rows();
  // Mutating the table changes its shape; the cached slot keyed by the
  // same address must be detected as stale and rebuilt.
  std::vector<ValueCode> row(t.num_columns(), 0);
  t.AppendRow(row);
  const auto after = SharedDistanceOracle(t, &ctx);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(n_before + 1, (*after)->num_rows());
  EXPECT_NE(before->get(), after->get());
}

}  // namespace
}  // namespace kanon
