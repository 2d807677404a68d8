#include "core/distance_oracle.h"

#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/distance.h"
#include "data/generators/uniform.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "util/parallel.h"
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

TEST(DistanceOracleTest, CancelledBuildReturnsStopStatus) {
  const Table t = MakeTable(48, 4, 8);
  RunContext ctx;
  ctx.RequestCancel();
  const auto oracle = DistanceOracle::Create(t, {}, &ctx);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kCancelled);
}

// Restores the process-wide kernel parallelism on scope exit.
class ParallelismGuard {
 public:
  explicit ParallelismGuard(unsigned workers) : saved_(GetParallelism()) {
    SetParallelism(workers);
  }
  ~ParallelismGuard() { SetParallelism(saved_); }
  ParallelismGuard(const ParallelismGuard&) = delete;
  ParallelismGuard& operator=(const ParallelismGuard&) = delete;

 private:
  const unsigned saved_;
};

// A uniform table with about 10% `*` cells, and rows 0 and 1 differing
// in every column, so the largest distance a cell must hold (m) occurs.
Table MakeStarredTable(RowId n, ColId m, uint64_t seed) {
  Rng rng(seed);
  Table t = UniformTable({.num_rows = n, .num_columns = m, .alphabet = 3},
                         &rng);
  for (RowId r = 0; r < n; ++r) {
    for (ColId c = 0; c < m; ++c) {
      if (r < 2) {
        t.set(r, c, r);
      } else if (rng.Bernoulli(0.1)) {
        t.set(r, c, kSuppressedCode);
      }
    }
  }
  return t;
}

// Number of pairs where the oracle disagrees with RowDistance.
size_t CountMismatches(const Table& t, const DistanceOracle& oracle) {
  size_t mismatches = 0;
  for (RowId a = 0; a < t.num_rows(); ++a) {
    for (RowId b = 0; b < t.num_rows(); ++b) {
      mismatches += oracle.at(a, b) != RowDistance(t, a, b) ? 1 : 0;
    }
  }
  return mismatches;
}

// The strip fill works in 64-row blocks with a scalar tail, and splits
// rows across workers: sizes on both sides of each block edge, widths up
// to the largest distance a byte cell holds, and several worker counts.
TEST(DistanceOracleTest, DenseFillMatchesRowDistanceAtEdges) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    const ParallelismGuard parallelism(workers);
    for (const RowId n :
         {1u, 2u, 15u, 16u, 17u, 63u, 64u, 65u, 129u, 300u}) {
      for (const ColId m : {1u, 3u, 8u, 17u, 255u}) {
        const Table t = MakeStarredTable(n, m, 100 * n + m);
        RunContext ctx;
        const auto oracle = DistanceOracle::Create(t, {}, &ctx);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        ASSERT_TRUE((*oracle)->dense());
        EXPECT_EQ(CountMismatches(t, **oracle), 0u)
            << "n=" << n << " m=" << m << " workers=" << workers;
        if (n >= 2) {
          EXPECT_EQ((*oracle)->at(0, 1), m);
        }
      }
    }
  }
}

// Past 255 columns a distance no longer fits a cell: the oracle answers
// on demand and still agrees.
TEST(DistanceOracleTest, WideTableIsOnDemand) {
  const Table t = MakeStarredTable(40, 256, 12);
  RunContext ctx;
  const auto oracle = DistanceOracle::Create(t, {}, &ctx);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_FALSE((*oracle)->dense());
  EXPECT_EQ(CountMismatches(t, **oracle), 0u);
  EXPECT_EQ((*oracle)->at(0, 1), 256u);
}

TEST(DistanceOracleTest, CancelledBuildLatchesCancelled) {
  const Table t = MakeTable(100, 5, 13);
  RunContext ctx;
  ctx.RequestCancel();
  const auto oracle = DistanceOracle::Create(t, {}, &ctx);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

// The `distance.build` site fires on a row in the middle of the fill:
// the build stops there and returns the deadline status.
TEST(DistanceOracleTest, FaultMidFillReturnsStopStatus) {
  constexpr RowId kRows = 200;
  constexpr double kProbability = 0.05;
  const uint64_t site_fp =
      FaultRegistry::Instance().Register("distance.build").name_fp;
  // The first plan seed whose first firing hit lands on rows 10..99.
  FaultPlan plan;
  uint64_t fire_row = 0;
  while (fire_row == 0) {
    ++plan.seed;
    uint64_t hit = 0;
    while (hit < 100 && !FaultRegistry::FireDecision(plan.seed, site_fp,
                                                     hit, kProbability)) {
      ++hit;
    }
    if (hit >= 10 && hit < 100) fire_row = hit;
  }
  plan.sites.push_back({.site = "distance.build",
                        .probability = kProbability});

  const ParallelismGuard serial(1);  // rows are visited in order
  const Table t = MakeTable(kRows, 5, 14);
  RunContext ctx;
  {
    const ScopedFaultInjection injection(plan);
    const auto oracle = DistanceOracle::Create(t, {}, &ctx);
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.status().code(), StatusCode::kDeadlineExceeded);
    for (const FaultSiteSnapshot& site :
         FaultRegistry::Instance().Snapshot()) {
      if (site.name != "distance.build") continue;
      EXPECT_EQ(site.fires, 1u);
      EXPECT_EQ(site.hits, fire_row + 1) << "the fill stops on that row";
    }
  }
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
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
