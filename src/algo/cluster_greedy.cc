#include "algo/cluster_greedy.h"

#include <algorithm>
#include <sstream>

#include "core/cost.h"
#include "core/distance_oracle.h"
#include "core/group_stats.h"
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
  std::vector<bool> assigned(n, false);
  size_t unassigned = n;

  AnonymizationResult result;
  // Incremental stats of each finished group, kept in step with
  // result.partition.groups for the leftover fold below.
  std::vector<GroupStats> stats;
  RowId seed = 0;
  while (unassigned >= k) {
    // Each group costs O(nkm); a stop leaves rows unassigned, so the
    // run declines like mdav.
    if (ctx->ShouldStop()) {
      return StoppedResult(*ctx, timer.Seconds(),
                           "stopped with " + std::to_string(unassigned) +
                               " rows unassigned");
    }
    // Seed: the unassigned row farthest from the previous seed (first
    // iteration: row 0).
    RowId far = n;
    ColId far_dist = 0;
    for (RowId r = 0; r < n; ++r) {
      if (assigned[r]) continue;
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
    GroupStats group_stats(table);
    group_stats.Add(seed);
    assigned[seed] = true;
    --unassigned;
    while (group.size() < k) {
      // O(m) what-if probe per candidate instead of rescanning the
      // whole group; same integers, so ties resolve identically.
      RowId best = n;
      size_t best_cost = 0;
      for (RowId r = 0; r < n; ++r) {
        if (assigned[r]) continue;
        const size_t c = group_stats.CostWith(r);
        if (best == n || c < best_cost) {
          best = r;
          best_cost = c;
        }
      }
      KANON_CHECK_LT(best, n);
      group.push_back(best);
      group_stats.Add(best);
      assigned[best] = true;
      --unassigned;
    }
    result.partition.groups.push_back(std::move(group));
    stats.push_back(std::move(group_stats));
  }

  // Fold leftovers into the cheapest group.
  for (RowId r = 0; r < n; ++r) {
    if (assigned[r]) continue;
    size_t best_group = 0;
    size_t best_delta = 0;
    bool first = true;
    for (size_t g = 0; g < stats.size(); ++g) {
      const size_t delta = stats[g].CostWith(r) - stats[g].anon_cost();
      if (first || delta < best_delta) {
        first = false;
        best_group = g;
        best_delta = delta;
      }
    }
    KANON_CHECK(!first);
    result.partition.groups[best_group].push_back(r);
    stats[best_group].Add(r);
    assigned[r] = true;
  }

  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "groups=" << result.partition.num_groups();
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
