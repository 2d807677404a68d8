#ifndef KANON_UTIL_METRICS_H_
#define KANON_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file
/// The counter registry: one ordered list of every counter the service's
/// `stats` line reports, and one `Metrics` object per serving stack that
/// holds their counts.
///
/// Each list entry's name is its `stats` key. FormatStatsLine and the
/// chaos digests iterate the list, so adding a counter takes one
/// `Counter` value, one entry in kCounterKeys and a count where the
/// event happens:
///
///   ctx->Count(Counter::kShardPlans);     // a solver, via its RunContext
///   metrics_.Add(Counter::kAccepted);     // the stack itself
///
/// A stack's Metrics lives in its JobQueue, which stamps it on every
/// admitted job's RunContext; child contexts inherit it, so the coreset
/// and sharded wrappers count into the job's own stack. A run with no
/// registry attached (a direct solver call) counts nothing. Counts are
/// relaxed atomics: they are diagnostics, not synchronization.

namespace kanon {

enum class Counter : uint8_t {
  // Admission (JobQueue). kShed counts the occupancy-ramp and overload
  // sheds, which kRejected also counts.
  kAccepted,
  kRejected,
  kShed,
  // Execution (WorkerPool). kRetries are in-place re-runs after a
  // transient worker fault; kRetriesExhausted are jobs answered
  // worker_failure after the last attempt.
  kCompleted,
  kCacheServed,
  kCancelled,
  kRetries,
  kRetriesExhausted,
  // Crash recovery at startup: jobs recovered from the journal, and
  // started jobs continued from a checkpoint or degraded to the
  // interrupted answer because their snapshot was unusable.
  kJournalReplays,
  kResumed,
  kResumeDegraded,
  // Snapshots written or failed by the job checkpoint sinks, and jobs
  // answered watchdog_preempted.
  kCheckpoints,
  kCheckpointFailures,
  kWatchdogPreempted,
  // Coreset wrapper: samples drawn, rows in them, full-table rows
  // assigned, undersized-group repair merges, repairs that collapsed to
  // one group, and warm starts from a checkpoint.
  kCoresetSamples,
  kCoresetRowsSampled,
  kCoresetAssignedRows,
  kCoresetRepairs,
  kCoresetRepairSuppressed,
  kCoresetResumed,
  // Sharded wrapper: plans cut, shards in them, per-shard solves and
  // typed declines, merges, boundary-group repair merges, and warm
  // starts from a checkpoint.
  kShardPlans,
  kShardsPlanned,
  kShardSolves,
  kShardDeclines,
  kShardMerges,
  kShardRepairs,
  kShardResumed,
  // Overload plane, counted by the callers of OverloadControl: CoDel and
  // forced sheds, jobs rejected deadline_infeasible, brownout rewrites,
  // and retries the pool-wide budget refused.
  kOverloadShed,
  kOverloadInfeasible,
  kOverloadBrownouts,
  kOverloadRetryDenied,
  // kNumCounters (below) is anchored on the last value.
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kOverloadRetryDenied) + 1;

struct CounterKey {
  std::string_view name;  ///< The `stats` key.
  Counter counter;
};

/// The counter keys of the `stats` line, in line order.
inline constexpr CounterKey kCounterKeys[] = {
    {"accepted", Counter::kAccepted},
    {"rejected", Counter::kRejected},
    {"shed", Counter::kShed},
    {"completed", Counter::kCompleted},
    {"cache_served", Counter::kCacheServed},
    {"cancelled", Counter::kCancelled},
    {"retries", Counter::kRetries},
    {"retries_exhausted", Counter::kRetriesExhausted},
    {"journal_replays", Counter::kJournalReplays},
    {"resumed", Counter::kResumed},
    {"resume_degraded", Counter::kResumeDegraded},
    {"checkpoints", Counter::kCheckpoints},
    {"checkpoint_failures", Counter::kCheckpointFailures},
    {"watchdog_preempted", Counter::kWatchdogPreempted},
    {"coreset_samples", Counter::kCoresetSamples},
    {"coreset_rows_sampled", Counter::kCoresetRowsSampled},
    {"coreset_assigned_rows", Counter::kCoresetAssignedRows},
    {"coreset_repairs", Counter::kCoresetRepairs},
    {"coreset_repair_suppressed", Counter::kCoresetRepairSuppressed},
    {"coreset_resumed", Counter::kCoresetResumed},
    {"shard_plans", Counter::kShardPlans},
    {"shards_planned", Counter::kShardsPlanned},
    {"shard_solves", Counter::kShardSolves},
    {"shard_declines", Counter::kShardDeclines},
    {"shard_merges", Counter::kShardMerges},
    {"shard_repairs", Counter::kShardRepairs},
    {"shard_resumed", Counter::kShardResumed},
    {"overload_shed", Counter::kOverloadShed},
    {"overload_infeasible", Counter::kOverloadInfeasible},
    {"overload_brownouts", Counter::kOverloadBrownouts},
    {"overload_retry_denied", Counter::kOverloadRetryDenied},
    // Each refused retry degrades its job to the terminal stage, so the
    // two keys report one count.
    {"overload_retry_degraded", Counter::kOverloadRetryDenied},
};

/// A copy of every count, taken one counter at a time.
struct MetricsSnapshot {
  std::array<uint64_t, kNumCounters> counts{};

  uint64_t operator[](Counter counter) const {
    return counts[static_cast<size_t>(counter)];
  }
};

/// The counts of one serving stack. Thread-safe.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void Add(Counter counter, uint64_t n = 1) {
    counts_[static_cast<size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Get(Counter counter) const {
    return counts_[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot snapshot;
    for (size_t i = 0; i < kNumCounters; ++i) {
      snapshot.counts[i] = counts_[i].load(std::memory_order_relaxed);
    }
    return snapshot;
  }

 private:
  std::array<std::atomic<uint64_t>, kNumCounters> counts_{};
};

}  // namespace kanon

#endif  // KANON_UTIL_METRICS_H_
