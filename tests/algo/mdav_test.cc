#include "algo/mdav.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "algo/exact_dp.h"
#include "core/distance.h"
#include "data/generators/census.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

TEST(MdavTest, ValidOnRandomTable) {
  Rng rng(1);
  const Table t = UniformTable(
      {.num_rows = 25, .num_columns = 6, .alphabet = 4}, &rng);
  MdavAnonymizer algo;
  const auto result = ValidateResult(t, 3, algo.Run(t, 3));
  EXPECT_EQ(result.partition.TotalMembers(), 25u);
}

TEST(MdavTest, FixedSizeGroupsExceptLast) {
  Rng rng(2);
  const Table t = UniformTable(
      {.num_rows = 23, .num_columns = 5, .alphabet = 3}, &rng);
  MdavAnonymizer algo;
  const auto result = algo.Run(t, 4);
  size_t irregular = 0;
  for (const Group& g : result.partition.groups) {
    EXPECT_GE(g.size(), 4u);
    EXPECT_LT(g.size(), 3 * 4u);
    if (g.size() != 4u) ++irregular;
  }
  EXPECT_LE(irregular, 1u);  // only the final group may be irregular
}

TEST(MdavTest, ExactMultipleYieldsAllFixedGroups) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 20, .num_columns = 5, .alphabet = 3}, &rng);
  MdavAnonymizer algo;
  const auto result = ValidateResult(t, 5, algo.Run(t, 5));
  for (const Group& g : result.partition.groups) {
    EXPECT_EQ(g.size(), 5u);
  }
}

TEST(MdavTest, PureClustersAreFree) {
  Rng rng(4);
  ClusteredTableOptions opt;
  opt.num_rows = 12;
  opt.num_clusters = 4;
  opt.noise_flips = 0;
  const Table t = ClusteredTable(opt, &rng);
  MdavAnonymizer algo;
  EXPECT_EQ(ValidateResult(t, 3, algo.Run(t, 3)).cost, 0u);
}

TEST(MdavTest, NEqualsKSingleGroup) {
  Rng rng(5);
  const Table t = UniformTable({.num_rows = 4, .num_columns = 3}, &rng);
  MdavAnonymizer algo;
  const auto result = ValidateResult(t, 4, algo.Run(t, 4));
  EXPECT_EQ(result.partition.num_groups(), 1u);
}

TEST(MdavTest, NeverBeatsExactOptimum) {
  Rng rng(6);
  const Table t = UniformTable(
      {.num_rows = 10, .num_columns = 4, .alphabet = 3}, &rng);
  ExactDpAnonymizer exact;
  MdavAnonymizer mdav;
  EXPECT_GE(mdav.Run(t, 2).cost, exact.Run(t, 2).cost);
}

TEST(MdavTest, ReasonableOnCensusData) {
  Rng rng(7);
  const Table t = CensusTable({.num_rows = 50}, &rng);
  MdavAnonymizer algo;
  const auto result = ValidateResult(t, 5, algo.Run(t, 5));
  // Must beat the all-stars ceiling comfortably on skewed data.
  EXPECT_LT(result.cost,
            static_cast<size_t>(t.num_rows()) * t.num_columns());
}

// MDAV as it read before its scans went incremental: the mode centroid
// recounted into a std::map every iteration, the centroid distance read
// cell by cell, and a full sort of every nearest-row candidate list.
Partition ReferenceMdav(const Table& table, size_t k) {
  const RowId n = table.num_rows();
  const ColId m = table.num_columns();
  std::vector<bool> assigned(n, false);
  size_t unassigned = n;
  const auto mode_centroid = [&] {
    std::vector<ValueCode> centroid(m, 0);
    for (ColId c = 0; c < m; ++c) {
      std::map<ValueCode, size_t> counts;
      for (RowId r = 0; r < n; ++r) {
        if (!assigned[r]) ++counts[table.at(r, c)];
      }
      size_t best = 0;
      for (const auto& [code, count] : counts) {
        if (count > best) {
          best = count;
          centroid[c] = code;
        }
      }
    }
    return centroid;
  };
  const auto farthest = [&](const std::vector<ValueCode>& center) {
    RowId best = n;
    ColId best_d = 0;
    for (RowId r = 0; r < n; ++r) {
      if (assigned[r]) continue;
      ColId d = 0;
      for (ColId c = 0; c < m; ++c) d += table.at(r, c) != center[c];
      if (best == n || d > best_d) {
        best = r;
        best_d = d;
      }
    }
    return best;
  };
  const auto take_group_around = [&](RowId seed) {
    Group group = {seed};
    assigned[seed] = true;
    --unassigned;
    std::vector<std::pair<ColId, RowId>> near;
    for (RowId r = 0; r < n; ++r) {
      if (!assigned[r]) near.emplace_back(RowDistance(table, seed, r), r);
    }
    std::sort(near.begin(), near.end());
    for (size_t i = 0; i < k - 1; ++i) {
      group.push_back(near[i].second);
      assigned[near[i].second] = true;
      --unassigned;
    }
    return group;
  };
  Partition partition;
  while (unassigned >= 3 * k) {
    const RowId r = farthest(mode_centroid());
    partition.groups.push_back(take_group_around(r));
    const std::span<const ValueCode> row = table.row(r);
    const RowId s = farthest(std::vector<ValueCode>(row.begin(), row.end()));
    partition.groups.push_back(take_group_around(s));
  }
  if (unassigned >= 2 * k) {
    partition.groups.push_back(take_group_around(farthest(mode_centroid())));
  }
  if (unassigned > 0) {
    Group rest;
    for (RowId r = 0; r < n; ++r) {
      if (!assigned[r]) rest.push_back(r);
    }
    partition.groups.push_back(std::move(rest));
  }
  return partition;
}

// Tables built to hit MDAV's tie-breaks: small alphabets, `*` cells
// (which must rank last among equally frequent codes), duplicated rows,
// sizes on both sides of the 2k and 3k thresholds, sparse codes far
// above the alphabet, and coreset-style row weights (which MDAV's
// grouping ignores).
TEST(MdavTest, MatchesReferenceScanOnAwkwardTables) {
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng(seed, /*stream=*/0x6d646176ull);  // "mdav"
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 6));
    const int max_rows = seed % 2 == 0 ? 300 : static_cast<int>(4 * k + 3);
    const auto n = static_cast<RowId>(rng.UniformInt(static_cast<int>(k),
                                                     max_rows));
    const auto m = static_cast<ColId>(rng.UniformInt(1, 9));
    const auto alphabet = static_cast<uint32_t>(rng.UniformInt(2, 6));
    Table t = UniformTable(
        {.num_rows = n, .num_columns = m, .alphabet = alphabet}, &rng);
    const bool sparse = seed % 4 == 1;
    for (RowId r = 0; r < n; ++r) {
      if (r > 0 && rng.Bernoulli(0.1)) {
        const RowId source = rng.Uniform(r);
        for (ColId c = 0; c < m; ++c) t.set(r, c, t.at(source, c));
        continue;
      }
      for (ColId c = 0; c < m; ++c) {
        if (rng.Bernoulli(0.1)) {
          t.set(r, c, kSuppressedCode);
        } else if (sparse) {
          t.set(r, c, 100000 + 7919 * t.at(r, c));
        }
      }
    }
    if (seed % 3 == 0) {
      std::vector<uint32_t> weights(n);
      for (uint32_t& w : weights) w = 1 + rng.Uniform(5);
      t.SetRowWeights(std::move(weights));
    }
    const Partition expected = ReferenceMdav(t, k);
    MdavAnonymizer algo;
    const AnonymizationResult result = algo.Run(t, k);
    EXPECT_EQ(result.partition.groups, expected.groups)
        << "seed " << seed << ": n=" << n << " m=" << m << " k=" << k
        << " alphabet=" << alphabet;
  }
}

}  // namespace
}  // namespace kanon
