#ifndef KANON_ALGO_SHARD_PLAN_H_
#define KANON_ALGO_SHARD_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/partition.h"
#include "data/table.h"
#include "util/run_context.h"
#include "util/status.h"

/// \file
/// Shard planning: the first stage of the sharded solve pipeline.
///
/// Lemma 4.1 sandwiches the optimal suppression cost between diameter
/// sums of (k, 2k-1)-partitions, so a table cut into geometrically
/// coherent shards can be solved per-shard and merged with a bounded
/// quality penalty. `PlanShards` produces that cut with Mondrian-style
/// median splits over the columnar mirror: starting from one shard
/// holding every row, it repeatedly takes the largest shard, sorts its
/// rows by the column with the most distinct values inside the shard
/// (ties -> lowest column id; row-id tiebreak inside equal codes), and
/// splits at the median index, clamped so both halves keep at least
/// 2k-1 rows — the wlog group-size ceiling, so every shard can hold at
/// least one full group after the inner solver's own wlog step.
///
/// The plan is a pure function of (table, k, options): no randomness,
/// no wall clock, so a resumed run replans the identical cut and can
/// validate per-shard snapshots against `ShardPlan::Fingerprint()`.
/// Fault site `shard.plan` fires a typed budget decline for chaos
/// testing.

namespace kanon {

/// Default shard count when ShardOptions::shards == 0.
inline constexpr size_t kDefaultShardCount = 8;

/// Knobs for the sharded pipeline (planning + solve concurrency).
struct ShardOptions {
  /// Target shard count; 0 means kDefaultShardCount. The planner may
  /// produce fewer shards when n cannot feed `shards` shards of 2k-1
  /// rows each (never more).
  size_t shards = 0;
  /// Concurrent shard solves; 0 means the process parallelism cap
  /// (GetParallelism()). Clamped to the shard count and to the global
  /// cap, so a pool of workers cannot oversubscribe the machine.
  size_t shard_parallelism = 0;

  /// Stable fingerprint over every knob; keyed into the service result
  /// cache so runs with different knobs can never collide.
  uint64_t Fingerprint() const;
};

/// The planned cut: disjoint row-id lists covering [0, n), each sorted
/// ascending, ordered by their smallest member.
struct ShardPlan {
  std::vector<Group> shards;

  size_t num_shards() const { return shards.size(); }

  /// Digest of the cut (shard count, sizes, boundary rows) used to
  /// stamp per-shard resume snapshots: a snapshot taken under a
  /// different plan must never be restored.
  uint64_t Fingerprint() const;
};

/// Shard count PlanShards will actually target for an n-row table:
/// min(requested, n / (2k-1)), at least 1. When this returns 1 the
/// caller should run the inner solver directly — sharding would not
/// decompose the instance.
size_t ResolveShardCount(size_t n, size_t k, const ShardOptions& options);

/// Plans the cut. Typed failures: kCancelled/kDeadlineExceeded/
/// kResourceExhausted when `ctx` stops, kInvalidArgument on an empty
/// table or k > n. Fault site `shard.plan` fires a typed budget
/// decline.
StatusOr<ShardPlan> PlanShards(const Table& table, size_t k,
                               const ShardOptions& options,
                               RunContext* ctx);

}  // namespace kanon

#endif  // KANON_ALGO_SHARD_PLAN_H_
