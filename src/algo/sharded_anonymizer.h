#ifndef KANON_ALGO_SHARDED_ANONYMIZER_H_
#define KANON_ALGO_SHARDED_ANONYMIZER_H_

#include <functional>
#include <memory>
#include <string>

#include "algo/anonymizer.h"
#include "algo/shard_plan.h"

/// \file
/// `sharded_<inner>`: the shard-plan / shard-solve / merge-repair
/// pipeline as a composable anonymizer. Three stages, each resumable
/// and typed on failure:
///
///   1. **plan** — PlanShards cuts the table into geometrically
///      coherent shards of >= 2k-1 rows with Mondrian-style median
///      splits (deterministic from the table, so a resumed run replans
///      the identical cut);
///   2. **solve** — a fresh inner instance runs on each shard's
///      SelectRows view under a lenient child RunContext carrying a
///      deadline slice and an equal share of the node budget. Shards
///      solve concurrently on up to `shard_parallelism` threads, bounded by a
///      process-wide token pool so stacked jobs (a worker pool running
///      several sharded jobs) never oversubscribe the machine; results
///      are indexed by shard, so the outcome is independent of thread
///      interleaving;
///   3. **merge** — MergeShardPartitions reindexes the shard-local
///      partitions into table coordinates and repairs undersized
///      boundary groups smallest-first, so the output is always a valid
///      k-anonymous partition of the full table.
///
/// When the resolved shard count is 1 the inner solver runs directly on
/// the full table under the caller's own context — that path is
/// bit-identical to the unsharded solver (golden cost + partition-hash
/// tests hold it there). Any stage that stops (fault site, deadline,
/// budget, cancel) returns a typed StoppedResult, which the resilient
/// fallback chain turns into graceful degradation — a killed or faulted
/// shard resumes or degrades typed, never corrupts the merged
/// partition. Wrapper snapshots (the set of completed shard partitions,
/// stamped with the plan fingerprint) ride the standard checkpoint
/// cadence under the name "sharded_<inner>".

namespace kanon {

class ShardedAnonymizer : public Anonymizer {
 public:
  /// Builds fresh inner instances: one per shard solve, so concurrent
  /// shards never share solver state. Must never return null, and the
  /// inner must not itself be "resilient" or a sharded_* wrapper.
  using InnerFactory = std::function<std::unique_ptr<Anonymizer>()>;

  explicit ShardedAnonymizer(InnerFactory factory,
                             ShardOptions options = {});

  using Anonymizer::Run;
  std::string name() const override;
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override;

  const ShardOptions& options() const { return options_; }

 private:
  InnerFactory factory_;
  /// One pre-built instance: names the wrapper and serves the
  /// shards=1 direct path.
  std::unique_ptr<Anonymizer> proto_;
  ShardOptions options_;
};

}  // namespace kanon

#endif  // KANON_ALGO_SHARDED_ANONYMIZER_H_
