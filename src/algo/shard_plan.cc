#include "algo/shard_plan.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "data/packed_table.h"
#include "fault/fault.h"
#include "util/fingerprint.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace kanon {

namespace {

/// Number of distinct codes the rows of `shard` take in `column`.
size_t DistinctInShard(std::span<const ValueCode> column,
                       const Group& shard) {
  std::unordered_set<ValueCode> seen;
  seen.reserve(shard.size());
  for (const RowId r : shard) seen.insert(column[r]);
  return seen.size();
}

/// Widest column inside `shard` (most distinct codes, ties -> lowest
/// column id); returns num_columns when every column is constant.
ColId WidestColumn(const PackedTable& packed, const Group& shard) {
  ColId best = packed.num_columns();
  size_t best_distinct = 1;
  for (ColId c = 0; c < packed.num_columns(); ++c) {
    const size_t distinct = DistinctInShard(packed.column(c), shard);
    if (distinct > best_distinct) {
      best = c;
      best_distinct = distinct;
    }
  }
  return best;
}

}  // namespace

uint64_t ShardOptions::Fingerprint() const {
  uint64_t fp = kFingerprintSeed;
  fp = FingerprintInt(fp, shards);
  fp = FingerprintInt(fp, shard_parallelism);
  return fp;
}

uint64_t ShardPlan::Fingerprint() const {
  uint64_t fp = kFingerprintSeed;
  fp = FingerprintInt(fp, shards.size());
  for (const Group& shard : shards) {
    fp = FingerprintInt(fp, shard.size());
    if (!shard.empty()) {
      fp = FingerprintInt(fp, shard.front());
      fp = FingerprintInt(fp, shard.back());
    }
  }
  return fp;
}

size_t ResolveShardCount(size_t n, size_t k,
                         const ShardOptions& options) {
  const size_t requested =
      options.shards > 0 ? options.shards : kDefaultShardCount;
  const size_t floor = 2 * k - 1;  // the wlog per-shard minimum
  const size_t feasible = floor == 0 ? n : n / floor;
  return std::max<size_t>(1, std::min(requested, feasible));
}

StatusOr<ShardPlan> PlanShards(const Table& table, size_t k,
                               const ShardOptions& options,
                               RunContext* ctx) {
  KANON_CHECK(ctx != nullptr);
  const size_t n = table.num_rows();
  if (n == 0) return Status::InvalidArgument("cannot shard an empty table");
  if (k < 1 || k > n) {
    return Status::InvalidArgument("k outside [1, rows] in shard planning");
  }
  if (KANON_FAULT_POINT("shard.plan")) {
    ctx->MarkStopped(StopReason::kBudget);
    return StopReasonToStatus(ctx->stop_reason());
  }
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());

  const size_t target = ResolveShardCount(n, k, options);
  ShardPlan plan;
  plan.shards.reserve(target);

  Group all(n);
  for (RowId r = 0; r < static_cast<RowId>(n); ++r) all[r] = r;
  plan.shards.push_back(std::move(all));

  const PackedTable packed(table);
  const size_t min_rows = 2 * k - 1;
  // Median cuts, largest shard first: each split removes the largest
  // shard and adds two halves of >= min_rows rows, so the loop adds one
  // shard per iteration and runs at most target-1 times.
  while (plan.shards.size() < target) {
    ctx->ChargeNodes();
    if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());
    // Largest shard, ties -> lowest index (deterministic).
    size_t victim = 0;
    for (size_t i = 1; i < plan.shards.size(); ++i) {
      if (plan.shards[i].size() > plan.shards[victim].size()) victim = i;
    }
    Group& shard = plan.shards[victim];
    if (shard.size() < 2 * min_rows) break;  // nothing left to split
    const ColId column = WidestColumn(packed, shard);
    if (column < packed.num_columns()) {
      // Mondrian median cut: order by (code, row id) so equal codes
      // stay in a deterministic order, then split at the midpoint.
      const std::span<const ValueCode> codes = packed.column(column);
      std::sort(shard.begin(), shard.end(),
                [codes](RowId a, RowId b) {
                  return codes[a] != codes[b] ? codes[a] < codes[b]
                                              : a < b;
                });
    }
    // A constant shard (no widest column) still splits at the index
    // median — the halves are equally coherent either way.
    const size_t cut = std::clamp(shard.size() / 2, min_rows,
                                  shard.size() - min_rows);
    Group right(shard.begin() + static_cast<long>(cut), shard.end());
    shard.resize(cut);
    std::sort(shard.begin(), shard.end());
    std::sort(right.begin(), right.end());
    plan.shards.push_back(std::move(right));
  }

  // Canonical order: shards by their smallest member, so the plan (and
  // every per-shard snapshot stamped with its fingerprint) is invariant
  // to the split sequence.
  std::sort(plan.shards.begin(), plan.shards.end(),
            [](const Group& a, const Group& b) {
              return a.front() < b.front();
            });
  ctx->ChargeNodes(n);
  return plan;
}

}  // namespace kanon
