#include "coreset/assign.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/distance.h"
#include "core/group_stats.h"
#include "fault/fault.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace kanon {
namespace {

/// Hamming distance from a row to a centroid, early-exiting once it can
/// no longer beat `bound`.
uint32_t BoundedDistance(std::span<const ValueCode> row,
                         const std::vector<ValueCode>& centroid,
                         uint32_t bound) {
  uint32_t d = 0;
  for (size_t c = 0; c < row.size(); ++c) {
    d += (row[c] != centroid[c]);
    if (d >= bound) return d;
  }
  return d;
}

}  // namespace

StatusOr<AssignmentOutcome> AssignToCoresetGroups(
    const Table& full, const Table& sample_table,
    const Partition& sample_partition, size_t k, RunContext* ctx) {
  KANON_CHECK(ctx != nullptr);
  const size_t n = full.num_rows();
  const size_t g = sample_partition.num_groups();
  if (g == 0) {
    return Status::InvalidArgument("coreset assignment needs >= 1 group");
  }
  if (k > n) {
    return Status::InvalidArgument("k exceeds the full row count");
  }
  KANON_CHECK_EQ(full.num_columns(), sample_table.num_columns());
  if (KANON_FAULT_POINT("coreset.assign")) {
    ctx->MarkStopped(StopReason::kDeadline);
    return StopReasonToStatus(ctx->stop_reason());
  }
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());

  std::vector<std::vector<ValueCode>> centroids(g);
  for (size_t i = 0; i < g; ++i) {
    KANON_CHECK(!sample_partition.groups[i].empty())
        << "empty group in the coreset partition";
    centroids[i] = WeightedModeCentroid(sample_table,
                                        sample_partition.groups[i]);
  }

  std::vector<uint32_t> owner(n);
  ParallelFor(
      0, n, 2048,
      [&](size_t b, size_t e) {
        for (size_t r = b; r < e; ++r) {
          const std::span<const ValueCode> row =
              full.row(static_cast<RowId>(r));
          uint32_t best_g = 0;
          uint32_t best_d = std::numeric_limits<uint32_t>::max();
          for (size_t i = 0; i < g; ++i) {
            const uint32_t d = BoundedDistance(row, centroids[i], best_d);
            if (d < best_d) {
              best_d = d;
              best_g = static_cast<uint32_t>(i);
            }
          }
          owner[r] = best_g;
        }
      },
      ctx);
  ctx->ChargeNodes(n);
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());

  AssignmentOutcome outcome;
  outcome.partition.groups.assign(g, Group());
  for (size_t r = 0; r < n; ++r) {
    outcome.partition.groups[owner[r]].push_back(static_cast<RowId>(r));
  }
  owner.clear();
  owner.shrink_to_fit();

  // Drop groups no full-table row chose (a sample row need not be
  // nearest to its own group's centroid), keeping centroids aligned.
  {
    size_t kept = 0;
    for (size_t i = 0; i < outcome.partition.groups.size(); ++i) {
      if (outcome.partition.groups[i].empty()) continue;
      if (kept != i) {
        outcome.partition.groups[kept] =
            std::move(outcome.partition.groups[i]);
        centroids[kept] = std::move(centroids[i]);
      }
      ++kept;
    }
    outcome.partition.groups.resize(kept);
    centroids.resize(kept);
  }

  // Repair: merge every undersized group (smallest first, ties -> lowest
  // id) into its nearest surviving neighbor by centroid distance. Each
  // merge removes one group, so this terminates; with n >= k the final
  // state — possibly a single group of all n rows — is always valid.
  const bool multi_group_before_repair = outcome.partition.num_groups() > 1;
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
    outcome.partition.groups.erase(outcome.partition.groups.begin() +
                                   static_cast<long>(victim));
    centroids.erase(centroids.begin() + static_cast<long>(victim));
    ++outcome.repair_merges;
  }
  outcome.repair_suppressed = outcome.repair_merges > 0 &&
                              multi_group_before_repair &&
                              outcome.partition.num_groups() == 1;
  KANON_CHECK(IsValidPartition(outcome.partition, static_cast<RowId>(n), k,
                               n))
      << "coreset assignment produced an invalid partition";
  return outcome;
}

}  // namespace kanon
