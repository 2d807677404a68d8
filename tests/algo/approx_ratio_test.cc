#include <cmath>

#include "algo/ball_cover.h"
#include "algo/exact_dp.h"
#include "algo/greedy_cover.h"
#include "data/generators/census.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

/// \file
/// The approximation-guarantee property suite: on every instance small
/// enough for the exact DP, the measured ratio of each approximation
/// algorithm must respect its theorem's bound:
///   Theorem 4.1 (greedy_cover): cost <= 3k(1 + ln 2k) * OPT,
///   Theorem 4.2 (ball_cover):   cost <= 6k(1 + ln m)  * OPT.
/// (When OPT == 0 the algorithms must also pay 0: zero-diameter groups
/// have ratio 0 in the greedy cover, so they are picked first.)

namespace kanon {
namespace {

// gtest names each case by the struct's raw bytes, so it must have no
// padding for the names to be stable.
struct RatioCase {
  uint64_t seed;
  uint32_t n;
  uint32_t m;
  uint64_t alphabet;
  uint64_t k;
  uint64_t clustered;  // 0 or 1
};
static_assert(sizeof(RatioCase) == 5 * sizeof(uint64_t));

class RatioPropertyTest : public ::testing::TestWithParam<RatioCase> {
 protected:
  Table MakeTable(const RatioCase& c) const {
    Rng rng(c.seed);
    if (c.clustered) {
      ClusteredTableOptions opt;
      opt.num_rows = c.n;
      opt.num_columns = c.m;
      opt.alphabet = static_cast<uint32_t>(c.alphabet);
      opt.num_clusters = std::max<uint32_t>(2, c.n / 4);
      opt.noise_flips = 1;
      return ClusteredTable(opt, &rng);
    }
    UniformTableOptions opt;
    opt.num_rows = c.n;
    opt.num_columns = c.m;
    opt.alphabet = static_cast<uint32_t>(c.alphabet);
    return UniformTable(opt, &rng);
  }
};

TEST_P(RatioPropertyTest, GreedyCoverWithinTheorem41Bound) {
  const RatioCase c = GetParam();
  const Table t = MakeTable(c);
  ExactDpAnonymizer exact;
  GreedyCoverAnonymizer greedy;
  const size_t opt = exact.Run(t, c.k).cost;
  const size_t cost = ValidateResult(t, c.k, greedy.Run(t, c.k)).cost;
  if (opt == 0) {
    EXPECT_EQ(cost, 0u);
  } else {
    const double bound =
        3.0 * static_cast<double>(c.k) *
        (1.0 + std::log(2.0 * static_cast<double>(c.k)));
    EXPECT_LE(static_cast<double>(cost),
              bound * static_cast<double>(opt));
  }
}

TEST_P(RatioPropertyTest, BallCoverWithinTheorem42Bound) {
  const RatioCase c = GetParam();
  const Table t = MakeTable(c);
  ExactDpAnonymizer exact;
  BallCoverAnonymizer ball;
  const size_t opt = exact.Run(t, c.k).cost;
  const size_t cost = ValidateResult(t, c.k, ball.Run(t, c.k)).cost;
  if (opt == 0) {
    EXPECT_EQ(cost, 0u);
  } else {
    const double bound = 6.0 * static_cast<double>(c.k) *
                         (1.0 + std::log(static_cast<double>(c.m)));
    EXPECT_LE(static_cast<double>(cost),
              bound * static_cast<double>(opt));
  }
}

TEST_P(RatioPropertyTest, BothWeightModesWithinBound) {
  const RatioCase c = GetParam();
  const Table t = MakeTable(c);
  ExactDpAnonymizer exact;
  const size_t opt = exact.Run(t, c.k).cost;
  const double bound = 6.0 * static_cast<double>(c.k) *
                       (1.0 + std::log(static_cast<double>(c.m)));
  for (const BallWeightMode mode :
       {BallWeightMode::kExactDiameter, BallWeightMode::kTwiceRadius}) {
    BallCoverOptions opt_ball;
    opt_ball.weight_mode = mode;
    BallCoverAnonymizer ball(opt_ball);
    const size_t cost = ValidateResult(t, c.k, ball.Run(t, c.k)).cost;
    if (opt == 0) {
      EXPECT_EQ(cost, 0u);
    } else {
      EXPECT_LE(static_cast<double>(cost),
                bound * static_cast<double>(opt));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RatioPropertyTest,
    ::testing::Values(
        RatioCase{1, 8, 4, 2, 2, false}, RatioCase{2, 8, 4, 3, 3, false},
        RatioCase{3, 10, 5, 3, 2, false}, RatioCase{4, 10, 5, 2, 3, false},
        RatioCase{5, 12, 4, 2, 2, false}, RatioCase{6, 12, 6, 4, 3, false},
        RatioCase{7, 9, 6, 3, 2, false}, RatioCase{8, 11, 3, 2, 2, false},
        RatioCase{9, 8, 5, 4, 2, true}, RatioCase{10, 12, 5, 4, 2, true},
        RatioCase{11, 12, 6, 6, 3, true}, RatioCase{12, 10, 4, 5, 2, true},
        RatioCase{13, 12, 8, 3, 2, true}, RatioCase{14, 13, 4, 3, 2, false},
        RatioCase{15, 12, 5, 3, 4, false}, RatioCase{16, 12, 5, 4, 6, true}));

// In practice the measured ratios should be far below the worst-case
// bounds on clustered data; this guards against silent regressions that
// stay within the loose theoretical bound but destroy practical quality.
TEST(PracticalQualityTest, BallCoverNearOptimalOnCleanClusters) {
  Rng rng(20);
  ClusteredTableOptions opt;
  opt.num_rows = 12;
  opt.num_clusters = 4;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  BallCoverAnonymizer ball;
  EXPECT_EQ(ball.Run(t, 3).cost, 0u);
}

TEST(PracticalQualityTest, GreedyCoverAtMostDoubleOptOnMediumNoise) {
  // Aggregate check across seeds: the mean measured ratio on lightly
  // noised clusters stays below 2.5 (far under the Theorem 4.1 bound of
  // ~14.3 for k=2).
  double ratio_sum = 0;
  int counted = 0;
  for (uint64_t seed = 30; seed < 40; ++seed) {
    Rng rng(seed);
    ClusteredTableOptions opt;
    opt.num_rows = 10;
    opt.num_columns = 6;
    opt.num_clusters = 5;
    opt.noise_flips = 1;
    const Table t = ClusteredTable(opt, &rng);
    ExactDpAnonymizer exact;
    GreedyCoverAnonymizer greedy;
    const size_t opt_cost = exact.Run(t, 2).cost;
    if (opt_cost == 0) continue;
    ratio_sum += static_cast<double>(greedy.Run(t, 2).cost) /
                 static_cast<double>(opt_cost);
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_LE(ratio_sum / counted, 2.5);
}

}  // namespace
}  // namespace kanon
