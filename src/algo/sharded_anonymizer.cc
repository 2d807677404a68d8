#include "algo/sharded_anonymizer.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "algo/shard_merge.h"
#include "ckpt/checkpoint.h"
#include "core/partition.h"
#include "fault/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace kanon {
namespace {

constexpr uint32_t kSnapshotVersion = 1;

/// Extra solver threads in flight across every sharded job in the
/// process. A job always keeps its calling thread, so the pool only
/// meters the *additional* threads; with the pool capped at
/// GetParallelism() - 1 a worker pool running several sharded jobs at
/// once degrades each job toward serial instead of oversubscribing.
std::atomic<long> g_extra_threads{0};

size_t AcquireExtraThreads(size_t want) {
  const long cap = static_cast<long>(GetParallelism()) - 1;
  if (cap <= 0 || want == 0) return 0;
  long current = g_extra_threads.load(std::memory_order_relaxed);
  for (;;) {
    const long room = cap - current;
    if (room <= 0) return 0;
    const long grant = std::min<long>(room, static_cast<long>(want));
    if (g_extra_threads.compare_exchange_weak(current, current + grant,
                                              std::memory_order_relaxed)) {
      return static_cast<size_t>(grant);
    }
  }
}

void ReleaseExtraThreads(size_t granted) {
  if (granted > 0) {
    g_extra_threads.fetch_sub(static_cast<long>(granted),
                              std::memory_order_relaxed);
  }
}

/// Wrapper snapshot: the set of completed shard partitions, stamped
/// with (options, n, k, plan fingerprint) so a snapshot taken under a
/// different cut can never be restored.
struct WrapperState {
  std::vector<char> done;
  std::vector<Partition> partitions;
};

std::string EncodeWrapperState(uint64_t options_fp, size_t n, size_t k,
                               uint64_t plan_fp,
                               const WrapperState& state) {
  CheckpointWriter w;
  w.PutU32(kSnapshotVersion);
  w.PutU64(options_fp);
  w.PutU64(n);
  w.PutU64(k);
  w.PutU64(plan_fp);
  w.PutU64(state.done.size());
  for (size_t i = 0; i < state.done.size(); ++i) {
    w.PutU32(state.done[i] ? 1 : 0);
    if (state.done[i]) w.PutPartition(state.partitions[i]);
  }
  return w.TakeBytes();
}

/// Decodes and fully validates a wrapper snapshot against this run's
/// stamp and the (re-planned, deterministic) cut. Any mismatch —
/// hostile bytes, different knobs, a different table, a shard
/// partition that is not a valid k-anonymization of its shard —
/// returns false and the caller cold-starts.
bool DecodeWrapperState(const std::string& payload, uint64_t options_fp,
                        size_t n, size_t k, const ShardPlan& plan,
                        WrapperState* state) {
  CheckpointReader r(payload);
  if (r.GetU32() != kSnapshotVersion) return false;
  if (r.GetU64() != options_fp) return false;
  if (r.GetU64() != n || r.GetU64() != k) return false;
  if (r.GetU64() != plan.Fingerprint()) return false;
  const uint64_t count = r.GetU64();
  if (r.failed() || count != plan.num_shards()) return false;
  state->done.assign(count, 0);
  state->partitions.assign(count, Partition{});
  bool any = false;
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t flag = r.GetU32();
    if (r.failed() || flag > 1) return false;
    if (flag == 0) continue;
    Partition local = r.GetPartition();
    const size_t shard_n = plan.shards[i].size();
    if (r.failed() ||
        !IsValidPartition(local, static_cast<RowId>(shard_n), k,
                          shard_n)) {
      return false;
    }
    state->done[i] = 1;
    state->partitions[i] = std::move(local);
    any = true;
  }
  if (!r.AtEnd()) return false;
  return any;
}

}  // namespace

ShardedAnonymizer::ShardedAnonymizer(InnerFactory factory,
                                     ShardOptions options)
    : factory_(std::move(factory)), options_(options) {
  KANON_CHECK(factory_ != nullptr) << "sharded wrapper needs a factory";
  proto_ = factory_();
  KANON_CHECK(proto_ != nullptr)
      << "sharded wrapper factory returned null";
  const std::string inner_name = proto_->name();
  KANON_CHECK(inner_name != "resilient" &&
              inner_name.rfind("sharded_", 0) != 0)
      << "sharded wrapper cannot nest '" << inner_name << "'";
}

std::string ShardedAnonymizer::name() const {
  return "sharded_" + proto_->name();
}

AnonymizationResult ShardedAnonymizer::Run(const Table& table, size_t k,
                                           RunContext* ctx) {
  KANON_CHECK(ctx != nullptr);
  const size_t n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(n, k);
  WallTimer timer;

  if (ResolveShardCount(n, k, options_) <= 1) {
    // One shard would just be the whole table: run the inner solver on
    // the caller's own context so this path stays bit-identical to the
    // unsharded solver.
    AnonymizationResult direct = proto_->Run(table, k, ctx);
    direct.notes = "sharded=direct(shards<=1) [" + direct.notes + "]";
    return direct;
  }

  StatusOr<ShardPlan> planned = PlanShards(table, k, options_, ctx);
  if (!planned.ok()) {
    if (ctx->stop_reason() == StopReason::kNone) {
      ctx->MarkStopped(StopReason::kBudget);
    }
    return StoppedResult(
        *ctx, timer.Seconds(),
        "declined: " + std::string(planned.status().message()));
  }
  const ShardPlan& plan = planned.value();
  const size_t num_shards = plan.num_shards();
  ctx->Count(Counter::kShardPlans);
  ctx->Count(Counter::kShardsPlanned, num_shards);
  if (num_shards <= 1) {
    AnonymizationResult direct = proto_->Run(table, k, ctx);
    direct.notes = "sharded=direct(shards<=1) [" + direct.notes + "]";
    return direct;
  }

  const uint64_t options_fp = options_.Fingerprint();
  WrapperState state;
  state.done.assign(num_shards, 0);
  state.partitions.assign(num_shards, Partition{});
  bool resumed = false;
  if (const auto payload = ctx->resume_payload(name())) {
    WrapperState loaded;
    if (DecodeWrapperState(*payload, options_fp, n, k, plan, &loaded)) {
      state = std::move(loaded);
      resumed = true;
      ctx->Count(Counter::kShardResumed);
    }
  }

  // Fixed per-shard node slices, computed once so the split is
  // independent of solve order: every shard gets an equal share of the
  // node budget left after planning, and what it spends is charged back
  // to the parent.
  uint64_t node_slice = 0;
  if (ctx->node_budget() > 0) {
    const uint64_t used = ctx->nodes_charged();
    const uint64_t left =
        ctx->node_budget() > used ? ctx->node_budget() - used : 1;
    node_slice = std::max<uint64_t>(1, left / num_shards);
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<StopReason> shard_stop(num_shards, StopReason::kNone);
  std::mutex state_mu;  // guards `state` writes + checkpoint encoding

  auto solve_shard = [&](size_t i) {
    if (KANON_FAULT_POINT("shard.solve")) {
      shard_stop[i] = StopReason::kBudget;
      failed.store(true, std::memory_order_relaxed);
      ctx->Count(Counter::kShardDeclines);
      return;
    }
    const Group& rows = plan.shards[i];
    Table shard_table = table.SelectRows(rows);
    RunContext child(ctx);
    child.set_lenient(true);
    // Isolate the shard from the job's checkpoint/resume chain: the
    // wrapper (under state_mu) is the single snapshot writer — shard
    // threads must not race inner-solver snapshots into the job sink —
    // and an inner solver must never restore a job-root payload, which
    // on same-sized shards would pass its size validation while
    // carrying another shard's (or the whole table's) grouping.
    child.set_checkpoint_isolated(true);
    if (ctx->has_deadline()) {
      child.set_deadline_after_millis(ctx->remaining_millis() * 0.7);
    }
    if (node_slice > 0) child.set_node_budget(node_slice);
    std::unique_ptr<Anonymizer> inner = factory_();
    AnonymizationResult r = inner->Run(shard_table, k, &child);
    ctx->ChargeNodes(child.nodes_charged());
    const size_t shard_n = rows.size();
    const bool valid =
        r.completed() && !r.partition.groups.empty() &&
        IsValidPartition(r.partition, static_cast<RowId>(shard_n), k,
                         shard_n);
    if (!valid) {
      shard_stop[i] = child.stop_reason() != StopReason::kNone
                          ? child.stop_reason()
                          : StopReason::kBudget;
      failed.store(true, std::memory_order_relaxed);
      ctx->Count(Counter::kShardDeclines);
      return;
    }
    ctx->Count(Counter::kShardSolves);
    std::lock_guard<std::mutex> lock(state_mu);
    state.done[i] = 1;
    state.partitions[i] = std::move(r.partition);
    if (ctx->CheckpointDue()) {
      (void)ctx->EmitCheckpoint(
          name(), EncodeWrapperState(options_fp, n, k, plan.Fingerprint(),
                                     state));
    }
  };

  auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_shards) return;
      if (state.done[i]) continue;  // restored from a snapshot
      if (failed.load(std::memory_order_relaxed) ||
          ctx->cancel_requested()) {
        // A shard already declined (or the job is cancelled): drain the
        // queue without spending budget — the decline below is typed
        // and deterministic on the lowest failed index either way.
        shard_stop[i] = StopReason::kCancelled;
        failed.store(true, std::memory_order_relaxed);
        continue;
      }
      solve_shard(i);
    }
  };

  size_t pending = 0;
  for (size_t i = 0; i < num_shards; ++i) pending += state.done[i] ? 0 : 1;
  size_t want = options_.shard_parallelism > 0
                    ? options_.shard_parallelism
                    : GetParallelism();
  want = std::min<size_t>({want, static_cast<size_t>(GetParallelism()),
                           std::max<size_t>(pending, 1)});
  const size_t extra =
      want > 1 ? AcquireExtraThreads(want - 1) : 0;
  if (extra == 0) {
    // Serial path: no threads, fully deterministic scheduling — this is
    // the path the chaos harness pins (parallelism 1).
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(extra);
    for (size_t t = 0; t < extra; ++t) threads.emplace_back(worker);
    worker();
    for (std::thread& t : threads) t.join();
    ReleaseExtraThreads(extra);
  }

  if (failed.load(std::memory_order_relaxed)) {
    size_t first = num_shards;
    for (size_t i = 0; i < num_shards; ++i) {
      if (shard_stop[i] != StopReason::kNone) {
        first = i;
        break;
      }
    }
    const StopReason reason =
        first < num_shards ? shard_stop[first] : StopReason::kBudget;
    if (ctx->stop_reason() == StopReason::kNone) ctx->MarkStopped(reason);
    std::ostringstream decline;
    decline << "declined: shard " << first << "/" << num_shards
            << " failed (" << StopReasonName(reason) << ")";
    return StoppedResult(*ctx, timer.Seconds(), decline.str());
  }

  StatusOr<ShardMergeOutcome> merged = MergeShardPartitions(
      table, plan, state.partitions, k, ctx);
  if (!merged.ok()) {
    if (ctx->stop_reason() == StopReason::kNone) {
      ctx->MarkStopped(StopReason::kBudget);
    }
    return StoppedResult(
        *ctx, timer.Seconds(),
        "declined: " + std::string(merged.status().message()));
  }
  ShardMergeOutcome& outcome = merged.value();
  ctx->Count(Counter::kShardMerges);
  ctx->Count(Counter::kShardRepairs, outcome.repair_merges);

  AnonymizationResult result;
  result.partition = std::move(outcome.partition);
  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  // `extra + 1` is the concurrency the job actually ran with (its own
  // thread plus the granted pool threads); `want` is only the request.
  std::ostringstream notes;
  notes << "sharded shards=" << num_shards << " parallelism=" << (extra + 1)
        << " inner=" << proto_->name()
        << " groups=" << result.partition.num_groups()
        << " repairs=" << outcome.repair_merges;
  if (outcome.repair_suppressed) notes << " degraded=repair_suppressed";
  if (resumed) notes << " resumed=1";
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
