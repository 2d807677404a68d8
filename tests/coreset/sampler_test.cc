#include "coreset/sampler.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "data/generators/synthetic.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "util/run_context.h"

/// \file
/// Sampler-layer contract: deterministic weighted samples whose integer
/// weights always sum to exactly n, typed declines on cancellation /
/// memory budget / injected faults, and the resolved-size clamps the
/// wrapper relies on to pick the direct path.

namespace kanon {
namespace {

Table SmallTable(uint64_t rows, uint64_t seed = 7) {
  SyntheticTableOptions options;
  options.num_rows = rows;
  options.num_columns = 4;
  options.seed = seed;
  return SyntheticTable(options);
}

void CheckSampleInvariants(const CoresetSample& sample, size_t n,
                           size_t max_rows) {
  ASSERT_FALSE(sample.rows.empty());
  ASSERT_EQ(sample.rows.size(), sample.weights.size());
  ASSERT_LE(sample.rows.size(), max_rows);
  size_t total = 0;
  for (size_t i = 0; i < sample.rows.size(); ++i) {
    ASSERT_LT(sample.rows[i], n);
    if (i > 0) {
      ASSERT_LT(sample.rows[i - 1], sample.rows[i]);
    }
    ASSERT_GE(sample.weights[i], 1u);
    total += sample.weights[i];
  }
  EXPECT_EQ(total, n);
}

TEST(ResolveSampleSizeTest, AppliesRateFloorCapAndClamp) {
  CoresetOptions options;
  // Default rate 0.125, cap 2048: big tables hit the cap.
  EXPECT_EQ(ResolveSampleSize(1000000, 5, options), 2048u);
  // Mid-size tables follow the rate.
  EXPECT_EQ(ResolveSampleSize(8000, 5, options), 1000u);
  // The min_sample / 3k floor wins over the rate...
  EXPECT_EQ(ResolveSampleSize(200, 5, options), 32u);
  EXPECT_EQ(ResolveSampleSize(200, 20, options), 60u);
  // ...and everything clamps to n, which signals "solve directly".
  EXPECT_EQ(ResolveSampleSize(20, 5, options), 20u);
  options.sample_rate = 1.0;
  EXPECT_EQ(ResolveSampleSize(100, 2, options), 100u);
}

TEST(CoresetSamplerTest, UniformSampleSatisfiesInvariants) {
  const Table table = SmallTable(500);
  CoresetOptions options;
  options.strategy = CoresetStrategy::kUniform;
  RunContext ctx;
  const auto sample = DrawCoresetSample(table, 4, options, &ctx);
  ASSERT_TRUE(sample.ok()) << sample.status().message();
  const size_t s = ResolveSampleSize(500, 4, options);
  EXPECT_EQ(sample->rows.size(), s);
  CheckSampleInvariants(*sample, 500, s);
}

TEST(CoresetSamplerTest, SensitivitySampleSatisfiesInvariants) {
  const Table table = SmallTable(500);
  CoresetOptions options;
  options.strategy = CoresetStrategy::kSensitivity;
  RunContext ctx;
  const auto sample = DrawCoresetSample(table, 4, options, &ctx);
  ASSERT_TRUE(sample.ok()) << sample.status().message();
  // i.i.d. draws can repeat, so distinct rows <= target size.
  CheckSampleInvariants(*sample, 500, ResolveSampleSize(500, 4, options));
}

TEST(CoresetSamplerTest, DeterministicFromSeedAcrossStrategies) {
  const Table table = SmallTable(400);
  for (const CoresetStrategy strategy :
       {CoresetStrategy::kUniform, CoresetStrategy::kSensitivity}) {
    CoresetOptions options;
    options.strategy = strategy;
    options.seed = 99;
    RunContext ctx_a, ctx_b;
    const auto a = DrawCoresetSample(table, 3, options, &ctx_a);
    const auto b = DrawCoresetSample(table, 3, options, &ctx_b);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rows, b->rows);
    EXPECT_EQ(a->weights, b->weights);

    options.seed = 100;
    RunContext ctx_c;
    const auto c = DrawCoresetSample(table, 3, options, &ctx_c);
    ASSERT_TRUE(c.ok());
    EXPECT_NE(a->rows, c->rows) << CoresetStrategyName(strategy);
  }
}

TEST(CoresetSamplerTest, SensitivityWeighsOutliersBelowTheBulk) {
  // 399 identical rows plus one far outlier, with a single seed center
  // (which lands in the bulk): the outlier's sensitivity score is high,
  // so when it is drawn its inverse-probability weight must sit well
  // below the bulk rows' (it stands for almost no one but itself). The
  // draw itself is probabilistic per seed, so scan a few deterministic
  // seeds until one includes the outlier — every assertion after that is
  // exact and replays identically.
  Schema schema({"a", "b", "c"});
  Table table(schema);
  for (int r = 0; r < 399; ++r) {
    table.AppendStringRow({"x", "x", "x"});
  }
  table.AppendStringRow({"y", "z", "w"});
  bool found = false;
  for (uint64_t seed = 1; seed <= 20 && !found; ++seed) {
    CoresetOptions options;
    options.strategy = CoresetStrategy::kSensitivity;
    options.seed_centers = 1;
    options.seed = seed;
    RunContext ctx;
    const auto sample = DrawCoresetSample(table, 3, options, &ctx);
    ASSERT_TRUE(sample.ok());
    const auto it =
        std::find(sample->rows.begin(), sample->rows.end(), RowId{399});
    if (it == sample->rows.end()) continue;
    found = true;
    const size_t outlier_index = it - sample->rows.begin();
    size_t max_weight = 0;
    for (const uint32_t w : sample->weights) {
      max_weight = std::max<size_t>(max_weight, w);
    }
    EXPECT_LT(sample->weights[outlier_index], max_weight)
        << "seed " << seed;
  }
  EXPECT_TRUE(found) << "no seed in [1,20] sampled the outlier";
}

TEST(CoresetSamplerTest, CancelledContextDeclinesTyped) {
  const Table table = SmallTable(300);
  RunContext ctx;
  ctx.RequestCancel();
  const auto sample = DrawCoresetSample(table, 3, {}, &ctx);
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kCancelled);
}

TEST(CoresetSamplerTest, MemoryBudgetDeclinesTyped) {
  const Table table = SmallTable(4096);
  RunContext ctx;
  ctx.set_memory_limit_bytes(64);  // far below the O(n) scratch
  const auto sample = DrawCoresetSample(table, 3, {}, &ctx);
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
}

TEST(CoresetSamplerTest, FaultSiteFiresTypedDecline) {
  const Table table = SmallTable(300);
  FaultPlan plan;
  plan.seed = 1;
  plan.sites.push_back({.site = "coreset.sample", .first_n = 1});
  ScopedFaultInjection injection(plan);
  RunContext ctx;
  const auto sample = DrawCoresetSample(table, 3, {}, &ctx);
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kBudget);
}

TEST(CoresetSamplerTest, EmptyTableIsInvalidArgument) {
  Table table{Schema({"a"})};
  RunContext ctx;
  const auto sample = DrawCoresetSample(table, 1, {}, &ctx);
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kanon
