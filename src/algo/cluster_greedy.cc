#include "algo/cluster_greedy.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "core/column_mask.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

AnonymizationResult ClusterGreedyAnonymizer::Run(const Table& table, size_t k,
                                                 RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);

  WallTimer timer;
  const StatusOr<std::shared_ptr<const DistanceOracle>> oracle =
      SharedDistanceOracle(table, ctx);
  if (!oracle.ok()) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: " + oracle.status().message());
  }
  const DistanceOracle& dm = **oracle;
  const ColId m = table.num_columns();
  const size_t words = MaskWords(m);
  std::vector<uint8_t> assigned(n, 0);
  // The unassigned rows, ascending, compacted after each group.
  std::vector<RowId> live(n);
  std::iota(live.begin(), live.end(), RowId{0});

  AnonymizationResult result;
  // Each finished group's seed, weight and pure columns (those where
  // every member holds the seed's code), in step with
  // result.partition.groups for the leftover fold below.
  std::vector<RowId> seeds;
  std::vector<size_t> weights;
  std::vector<uint64_t> pure;
  // diff[i * words ..]: the columns where live[i] differs from the seed.
  std::vector<uint64_t> diff;
  RowId seed = 0;
  while (live.size() >= k) {
    // Each group costs O(nm); a stop leaves rows unassigned, so the run
    // declines like mdav.
    if (ctx->ShouldStop()) {
      return StoppedResult(*ctx, timer.Seconds(),
                           "stopped with " + std::to_string(live.size()) +
                               " rows unassigned");
    }
    // Seed: the unassigned row farthest from the previous seed (first
    // iteration: row 0).
    RowId far = n;
    ColId far_dist = 0;
    for (const RowId r : live) {
      const ColId d = result.partition.groups.empty() && r == 0
                          ? 0
                          : dm.at(seed, r);
      if (far == n || d > far_dist) {
        far = r;
        far_dist = d;
      }
    }
    KANON_CHECK_LT(far, n);
    seed = far;

    Group group = {seed};
    assigned[seed] = 1;
    size_t weight = table.row_weight(seed);
    const size_t base = pure.size();
    pure.resize(base + words, ~uint64_t{0});
    if (m % 64 != 0) pure.back() = (uint64_t{1} << (m % 64)) - 1;
    uint64_t* const group_pure = pure.data() + base;
    diff.assign(live.size() * words, 0);
    for (size_t i = 0; i < live.size(); ++i) {
      OrDiffMask(table.row(live[i]), table.row(seed), diff.data() + i * words);
    }
    while (group.size() < k) {
      // ANON(group + r) = (W + w_r) * (D + |pure ∧ diff(r, seed)|): on a
      // pure column the group holds only the seed's code, so r adds a
      // disagreeing column exactly where it differs from the seed. The
      // same integers as a rescan, so ties resolve identically.
      const size_t disagreeing = m - MaskCount(group_pure, words);
      size_t best = live.size();
      size_t best_cost = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        const RowId r = live[i];
        if (assigned[r]) continue;
        size_t d = disagreeing;
        for (size_t w = 0; w < words; ++w) {
          d += std::popcount(group_pure[w] & diff[i * words + w]);
        }
        const size_t c = (weight + table.row_weight(r)) * d;
        if (best == live.size() || c < best_cost) {
          best = i;
          best_cost = c;
        }
      }
      KANON_CHECK_LT(best, live.size());
      const RowId row = live[best];
      group.push_back(row);
      for (size_t w = 0; w < words; ++w) {
        group_pure[w] &= ~diff[best * words + w];
      }
      weight += table.row_weight(row);
      assigned[row] = 1;
    }
    std::erase_if(live, [&](RowId r) { return assigned[r] != 0; });
    result.partition.groups.push_back(std::move(group));
    seeds.push_back(seed);
    weights.push_back(weight);
  }

  // Fold leftovers into the group whose cost grows least.
  std::vector<uint64_t> row_diff(words);
  for (const RowId r : live) {
    size_t best_group = 0;
    size_t best_delta = 0;
    bool first = true;
    for (size_t g = 0; g < seeds.size(); ++g) {
      std::fill(row_diff.begin(), row_diff.end(), 0);
      OrDiffMask(table.row(r), table.row(seeds[g]), row_diff.data());
      const uint64_t* group_pure = pure.data() + g * words;
      const size_t disagreeing = m - MaskCount(group_pure, words);
      size_t d = disagreeing;
      for (size_t w = 0; w < words; ++w) {
        d += std::popcount(group_pure[w] & row_diff[w]);
      }
      const size_t delta = (weights[g] + table.row_weight(r)) * d -
                           weights[g] * disagreeing;
      if (first || delta < best_delta) {
        first = false;
        best_group = g;
        best_delta = delta;
      }
    }
    KANON_CHECK(!first);
    result.partition.groups[best_group].push_back(r);
    std::fill(row_diff.begin(), row_diff.end(), 0);
    OrDiffMask(table.row(r), table.row(seeds[best_group]), row_diff.data());
    for (size_t w = 0; w < words; ++w) {
      pure[best_group * words + w] &= ~row_diff[w];
    }
    weights[best_group] += table.row_weight(r);
  }

  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "groups=" << result.partition.num_groups();
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
