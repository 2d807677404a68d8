#include "algo/shard_merge.h"

#include <cstdint>
#include <utility>

#include "core/distance.h"
#include "core/group_stats.h"
#include "fault/fault.h"
#include "util/logging.h"

namespace kanon {

StatusOr<ShardMergeOutcome> MergeShardPartitions(
    const Table& table, const ShardPlan& plan,
    const std::vector<Partition>& shard_partitions, size_t k,
    RunContext* ctx) {
  KANON_CHECK(ctx != nullptr);
  const size_t n = table.num_rows();
  if (k > n) return Status::InvalidArgument("k exceeds the row count");
  if (shard_partitions.size() != plan.num_shards()) {
    return Status::InvalidArgument(
        "shard partition count does not match the plan");
  }
  if (KANON_FAULT_POINT("shard.merge")) {
    ctx->MarkStopped(StopReason::kBudget);
    return StopReasonToStatus(ctx->stop_reason());
  }
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());

  // Reindex shard-local groups into table coordinates, validating that
  // each shard partition is exactly a partition of its shard (every
  // local index used once). Undersized groups are legal here — repair
  // below is their path back to validity.
  ShardMergeOutcome outcome;
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    const Group& rows = plan.shards[s];
    const Partition& local = shard_partitions[s];
    std::vector<bool> used(rows.size(), false);
    size_t covered = 0;
    for (const Group& group : local.groups) {
      if (group.empty()) {
        return Status::InvalidArgument("empty group in a shard partition");
      }
      Group global;
      global.reserve(group.size());
      for (const RowId local_id : group) {
        if (local_id >= rows.size() || used[local_id]) {
          return Status::InvalidArgument(
              "shard partition is not a partition of its shard");
        }
        used[local_id] = true;
        ++covered;
        global.push_back(rows[local_id]);
      }
      outcome.partition.groups.push_back(std::move(global));
    }
    if (covered != rows.size()) {
      return Status::InvalidArgument(
          "shard partition does not cover its shard");
    }
  }
  ctx->ChargeNodes(n);
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());

  // Repair: merge every undersized boundary group (smallest first,
  // ties -> lowest id) into its nearest surviving neighbor by centroid
  // distance. Each merge removes one group, so this terminates; with
  // n >= k the final state — possibly one group of all n rows — is
  // always valid.
  std::vector<std::vector<ValueCode>> centroids;
  const bool multi_group = outcome.partition.num_groups() > 1;
  while (outcome.partition.num_groups() > 1) {
    size_t victim = outcome.partition.num_groups();
    for (size_t i = 0; i < outcome.partition.num_groups(); ++i) {
      const size_t size = outcome.partition.groups[i].size();
      if (size >= k) continue;
      if (victim == outcome.partition.num_groups() ||
          size < outcome.partition.groups[victim].size()) {
        victim = i;
      }
    }
    if (victim == outcome.partition.num_groups()) break;  // all >= k
    if (centroids.empty()) {
      // Centroids are only needed once a repair is actually due — the
      // common all-shards-valid merge never pays for them.
      centroids.resize(outcome.partition.num_groups());
      for (size_t i = 0; i < outcome.partition.num_groups(); ++i) {
        centroids[i] =
            WeightedModeCentroid(table, outcome.partition.groups[i]);
      }
    }
    size_t target = victim == 0 ? 1 : 0;
    uint32_t best_d = HammingDistance(centroids[victim], centroids[target]);
    for (size_t i = 0; i < outcome.partition.num_groups(); ++i) {
      if (i == victim) continue;
      const uint32_t d = HammingDistance(centroids[victim], centroids[i]);
      if (d < best_d || (d == best_d && i < target)) {
        best_d = d;
        target = i;
      }
    }
    Group& dst = outcome.partition.groups[target];
    Group& src = outcome.partition.groups[victim];
    dst.insert(dst.end(), src.begin(), src.end());
    centroids[target] = WeightedModeCentroid(table, dst);
    outcome.partition.groups.erase(outcome.partition.groups.begin() +
                                   static_cast<long>(victim));
    centroids.erase(centroids.begin() + static_cast<long>(victim));
    ++outcome.repair_merges;
    ctx->ChargeNodes();
  }
  outcome.repair_suppressed = outcome.repair_merges > 0 && multi_group &&
                              outcome.partition.num_groups() == 1;
  if (!IsValidPartition(outcome.partition, static_cast<RowId>(n), k, n)) {
    // Only reachable when a single shard held fewer than k rows in
    // total — the planner never produces one, so arriving here means
    // the caller handed in a foreign plan.
    return Status::InvalidArgument(
        "merged shard partitions do not form a valid k-anonymous "
        "partition");
  }
  return outcome;
}

}  // namespace kanon
