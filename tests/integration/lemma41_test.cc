#include <algorithm>
#include <cmath>
#include <functional>

#include "algo/exact_dp.h"
#include "core/cost.h"
#include "core/distance.h"
#include "core/distance_oracle.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

/// \file
/// Lemma 4.1 verified against true optima, in its PROVABLE form (see
/// DESIGN.md "Lemma 4.1 constants"): for any group S,
///     |S| · d(S)  <=  ANON(S)  <=  |S| · (|S|-1) · d(S),
/// because the number of disagreeing columns D_S satisfies
/// d(S) <= D_S <= (|S|-1) d(S) (union of per-pair difference sets w.r.t.
/// an anchor). Hence for the diameter-sum minimizing (k, 2k-1)-partition
/// Π*:
///     k · dΠ*  <=  OPT(V)  <=  (2k-1)(2k-2) · dΠ*.
/// The paper's as-printed "ANON(S) <= |S| d(S)" is an OCR/typo artifact
/// (one-hot rows are a counterexample); the corrected chain still yields
/// the abstract's O(k log k) ratio with constant 4. We assert the
/// provable sandwich against true optima from exhaustive search, and
/// bench E5 additionally *measures* how often the tighter as-printed
/// bound happens to hold in practice.

namespace kanon {
namespace {

/// Exhaustive minimum diameter sum over all (k, 2k-1)-partitions.
/// Exponential; for n <= 10 only.
size_t MinDiameterSum(const Table& table, size_t k) {
  const RowId n = table.num_rows();
  const auto dm = *DistanceOracle::Create(table, {}, nullptr);
  std::vector<RowId> unassigned(n);
  for (RowId r = 0; r < n; ++r) unassigned[r] = r;

  size_t best = static_cast<size_t>(-1);
  std::vector<bool> assigned(n, false);
  // Anchored enumeration of all (k, 2k-1)-partitions.
  std::function<void(size_t)> recurse = [&](size_t current_sum) {
    if (current_sum >= best) return;
    RowId anchor = n;
    for (RowId r = 0; r < n; ++r) {
      if (!assigned[r]) {
        anchor = r;
        break;
      }
    }
    if (anchor == n) {
      best = current_sum;
      return;
    }
    std::vector<RowId> candidates;
    for (RowId r = anchor + 1; r < n; ++r) {
      if (!assigned[r]) candidates.push_back(r);
    }
    Group group = {anchor};
    std::function<void(size_t)> extend = [&](size_t pos) {
      if (group.size() >= k) {
        for (const RowId r : group) assigned[r] = true;
        recurse(current_sum + dm->Diameter(group));
        for (const RowId r : group) assigned[r] = false;
      }
      if (group.size() == 2 * k - 1) return;
      for (size_t i = pos; i < candidates.size(); ++i) {
        group.push_back(candidates[i]);
        extend(i + 1);
        group.pop_back();
      }
    };
    extend(0);
  };
  recurse(0);
  return best;
}

// gtest names each case by the struct's raw bytes, so it must have no
// padding for the names to be stable.
struct LemmaCase {
  uint64_t seed;
  uint32_t n;
  uint32_t m;
  uint64_t alphabet;
  uint64_t k;
  uint64_t clustered;  // 0 or 1
};
static_assert(sizeof(LemmaCase) == 5 * sizeof(uint64_t));

class Lemma41ExactTest : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(Lemma41ExactTest, SandwichHoldsAgainstTrueOptima) {
  const LemmaCase c = GetParam();
  Rng rng(c.seed);
  Table t = [&] {
    if (c.clustered) {
      ClusteredTableOptions opt;
      opt.num_rows = c.n;
      opt.num_columns = c.m;
      opt.alphabet = static_cast<uint32_t>(c.alphabet);
      opt.num_clusters = 3;
      opt.noise_flips = 1;
      return ClusteredTable(opt, &rng);
    }
    UniformTableOptions opt;
    opt.num_rows = c.n;
    opt.num_columns = c.m;
    opt.alphabet = static_cast<uint32_t>(c.alphabet);
    return UniformTable(opt, &rng);
  }();

  ExactDpAnonymizer exact;
  const size_t opt_cost = exact.Run(t, c.k).cost;
  const size_t min_diam = MinDiameterSum(t, c.k);

  // Left inequality: k * dΠ* <= OPT (strictly stronger than the paper's
  // (k/2) form; D_S >= d(S) and |S| >= k).
  EXPECT_LE(c.k * min_diam, opt_cost)
      << "k=" << c.k << " dPi*=" << min_diam << " OPT=" << opt_cost;
  // Right inequality, corrected constants: OPT <= (2k-1)(2k-2) * dΠ*
  // (degenerates to OPT == 0 when dΠ* == 0).
  if (min_diam == 0) {
    EXPECT_EQ(opt_cost, 0u);
  } else {
    EXPECT_LE(opt_cost, (2 * c.k - 1) * (2 * c.k - 2) * min_diam)
        << "k=" << c.k << " dPi*=" << min_diam << " OPT=" << opt_cost;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma41ExactTest,
    ::testing::Values(LemmaCase{1, 8, 4, 3, 2, false},
                      LemmaCase{2, 8, 5, 2, 2, false},
                      LemmaCase{3, 9, 4, 3, 3, false},
                      LemmaCase{4, 9, 6, 4, 2, false},
                      LemmaCase{5, 10, 4, 2, 2, false},
                      LemmaCase{6, 8, 4, 4, 4, false},
                      LemmaCase{7, 9, 5, 5, 2, true},
                      LemmaCase{8, 10, 5, 4, 3, true},
                      LemmaCase{9, 8, 6, 3, 2, true},
                      LemmaCase{10, 10, 6, 2, 5, false}));

// Per-group sandwich: |S| d(S) <= ANON(S) <= |S| (|S|-1) d(S) on random
// groups (the corrected building block of Lemma 4.1).
class AnonSandwichTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnonSandwichTest, GroupCostBetweenDiameterBounds) {
  Rng rng(GetParam());
  const uint32_t n = 12;
  const Table t = UniformTable(
      {.num_rows = n, .num_columns = 8, .alphabet = static_cast<uint32_t>(2 + GetParam() % 4)},
      &rng);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t size = 2 + rng.Uniform(5);
    const std::vector<uint32_t> picks =
        rng.SampleWithoutReplacement(n, size);
    const Group g(picks.begin(), picks.end());
    const size_t anon = AnonCost(t, g);
    const size_t diam = SetDiameter(t, g);
    EXPECT_GE(anon, g.size() * diam);
    EXPECT_LE(anon, g.size() * (g.size() - 1) * diam);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnonSandwichTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(AnonSandwichTest, OneHotCounterexampleToAsPrintedBound) {
  // Three one-hot rows: diameter 2 but three disagreeing columns, so
  // ANON(S) = 9 > |S| d(S) = 6 — the as-printed Lemma 4.1 upper bound
  // fails while the corrected |S|(|S|-1)d(S) = 12 holds.
  Schema schema({"c0", "c1", "c2"});
  Table t(std::move(schema));
  t.AppendStringRow({"1", "0", "0"});
  t.AppendStringRow({"0", "1", "0"});
  t.AppendStringRow({"0", "0", "1"});
  const Group g = {0, 1, 2};
  EXPECT_EQ(SetDiameter(t, g), 2u);
  EXPECT_EQ(AnonCost(t, g), 9u);
  EXPECT_GT(AnonCost(t, g), g.size() * SetDiameter(t, g));
  EXPECT_LE(AnonCost(t, g), g.size() * (g.size() - 1) * SetDiameter(t, g));
}

TEST(Lemma41ZeroTest, ZeroDiameterImpliesZeroCost) {
  // When the min diameter sum is 0 both sides of the sandwich collapse.
  Rng rng(42);
  ClusteredTableOptions opt;
  opt.num_rows = 8;
  opt.num_clusters = 4;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  ExactDpAnonymizer exact;
  EXPECT_EQ(MinDiameterSum(t, 2), 0u);
  EXPECT_EQ(exact.Run(t, 2).cost, 0u);
}

}  // namespace
}  // namespace kanon
