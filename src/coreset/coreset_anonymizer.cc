#include "coreset/coreset_anonymizer.h"

#include <sstream>
#include <utility>

#include "ckpt/checkpoint.h"
#include "core/partition.h"
#include "coreset/assign.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace kanon {
namespace {

constexpr uint32_t kSnapshotVersion = 1;

/// Wrapper snapshot: which phase completed, plus enough state to skip
/// the completed phases on resume. Phase 1 = sample drawn; phase 2 =
/// inner solve finished (weighted partition included).
struct WrapperState {
  uint32_t phase = 0;
  CoresetSample sample;
  Partition sample_partition;
};

std::string EncodeWrapperState(uint64_t options_fp, size_t n, size_t k,
                               const WrapperState& state) {
  CheckpointWriter w;
  w.PutU32(kSnapshotVersion);
  w.PutU64(options_fp);
  w.PutU64(n);
  w.PutU64(k);
  w.PutU32(state.phase);
  w.PutU64(state.sample.rows.size());
  for (const RowId r : state.sample.rows) w.PutU64(r);
  for (const uint32_t weight : state.sample.weights) w.PutU64(weight);
  if (state.phase >= 2) w.PutPartition(state.sample_partition);
  return w.TakeBytes();
}

/// Decodes and fully validates a wrapper snapshot against this run's
/// stamp. Any mismatch (hostile bytes, different knobs, different
/// instance) returns false and the caller cold-starts — a bad snapshot
/// must never be silently restored.
bool DecodeWrapperState(const std::string& payload, uint64_t options_fp,
                        size_t n, size_t k, size_t expected_sample,
                        WrapperState* state) {
  CheckpointReader r(payload);
  if (r.GetU32() != kSnapshotVersion) return false;
  if (r.GetU64() != options_fp) return false;
  if (r.GetU64() != n || r.GetU64() != k) return false;
  const uint32_t phase = r.GetU32();
  if (r.failed() || phase < 1 || phase > 2) return false;
  const uint64_t count = r.GetU64();
  if (r.failed() || count == 0 || count > expected_sample) return false;
  state->sample.rows.resize(count);
  state->sample.weights.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t row = r.GetU64();
    if (row >= n) return false;
    if (i > 0 && row <= state->sample.rows[i - 1]) return false;
    state->sample.rows[i] = static_cast<RowId>(row);
  }
  uint64_t total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t weight = r.GetU64();
    if (weight == 0 || weight > n) return false;
    state->sample.weights[i] = static_cast<uint32_t>(weight);
    total += weight;
  }
  if (r.failed() || total != n) return false;
  if (phase >= 2) {
    state->sample_partition = r.GetPartition();
    if (r.failed() ||
        !IsValidPartition(state->sample_partition,
                          static_cast<RowId>(count), k, count)) {
      return false;
    }
  }
  if (!r.AtEnd()) return false;
  state->phase = phase;
  return true;
}

}  // namespace

CoresetAnonymizer::CoresetAnonymizer(std::unique_ptr<Anonymizer> inner,
                                     CoresetOptions options)
    : inner_(std::move(inner)), options_(options) {
  KANON_CHECK(inner_ != nullptr) << "coreset wrapper needs an inner solver";
  const std::string inner_name = inner_->name();
  KANON_CHECK(inner_name != "resilient" &&
              inner_name.rfind("coreset_", 0) != 0)
      << "coreset wrapper cannot nest '" << inner_name << "'";
}

std::string CoresetAnonymizer::name() const {
  return "coreset_" + inner_->name();
}

AnonymizationResult CoresetAnonymizer::Run(const Table& table, size_t k,
                                           RunContext* ctx) {
  KANON_CHECK(ctx != nullptr);
  const size_t n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(n, k);
  WallTimer timer;

  const size_t target = ResolveSampleSize(n, k, options_);
  if (target >= n) {
    // Sampling would not shrink the instance; solve directly.
    AnonymizationResult direct = inner_->Run(table, k, ctx);
    direct.notes = "coreset=direct(n<=sample) [" + direct.notes + "]";
    return direct;
  }

  const uint64_t options_fp = options_.Fingerprint();
  WrapperState state;
  bool resumed = false;
  if (const auto payload = ctx->resume_payload(name())) {
    WrapperState loaded;
    if (DecodeWrapperState(*payload, options_fp, n, k, target, &loaded)) {
      state = std::move(loaded);
      resumed = true;
      ctx->Count(Counter::kCoresetResumed);
    }
  }

  if (state.phase < 1) {
    StatusOr<CoresetSample> drawn =
        DrawCoresetSample(table, k, options_, ctx);
    if (!drawn.ok()) {
      if (ctx->stop_reason() == StopReason::kNone) {
        ctx->MarkStopped(StopReason::kBudget);
      }
      return StoppedResult(
          *ctx, timer.Seconds(),
          "declined: " + std::string(drawn.status().message()));
    }
    state.sample = std::move(drawn.value());
    state.phase = 1;
    ctx->Count(Counter::kCoresetSamples);
    ctx->Count(Counter::kCoresetRowsSampled, state.sample.rows.size());
    if (ctx->CheckpointDue()) {
      (void)ctx->EmitCheckpoint(
          name(), EncodeWrapperState(options_fp, n, k, state));
    }
  }

  Table sample_table = table.SelectRows(state.sample.rows);
  sample_table.SetRowWeights(state.sample.weights);
  const size_t s = sample_table.num_rows();

  if (state.phase < 2) {
    // Lenient child with a slice of the remaining limits, exactly like a
    // fallback-chain stage: the assignment pass still needs headroom.
    RunContext child(ctx);
    child.set_lenient(true);
    if (ctx->has_deadline()) {
      child.set_deadline_after_millis(ctx->remaining_millis() * 0.7);
    }
    if (ctx->node_budget() > 0) {
      const uint64_t used = ctx->nodes_charged();
      child.set_node_budget(
          ctx->node_budget() > used ? ctx->node_budget() - used : 1);
    }
    AnonymizationResult inner_result = inner_->Run(sample_table, k, &child);
    ctx->ChargeNodes(child.nodes_charged());
    const bool valid =
        !inner_result.partition.groups.empty() &&
        IsValidPartition(inner_result.partition, static_cast<RowId>(s), k,
                         s);
    if (!valid) {
      if (ctx->stop_reason() == StopReason::kNone) {
        ctx->MarkStopped(child.stop_reason() != StopReason::kNone
                             ? child.stop_reason()
                             : StopReason::kBudget);
      }
      return StoppedResult(*ctx, timer.Seconds(),
                           "declined: inner solver failed on the sample (" +
                               std::string(StopReasonName(
                                   child.stop_reason())) +
                               ")");
    }
    state.sample_partition = std::move(inner_result.partition);
    state.phase = 2;
    if (ctx->CheckpointDue()) {
      (void)ctx->EmitCheckpoint(
          name(), EncodeWrapperState(options_fp, n, k, state));
    }
  }

  StatusOr<AssignmentOutcome> assigned = AssignToCoresetGroups(
      table, sample_table, state.sample_partition, k, ctx);
  if (!assigned.ok()) {
    if (ctx->stop_reason() == StopReason::kNone) {
      ctx->MarkStopped(StopReason::kBudget);
    }
    return StoppedResult(
        *ctx, timer.Seconds(),
        "declined: " + std::string(assigned.status().message()));
  }
  AssignmentOutcome& outcome = assigned.value();
  ctx->Count(Counter::kCoresetAssignedRows, n);
  ctx->Count(Counter::kCoresetRepairs, outcome.repair_merges);
  if (outcome.repair_suppressed) {
    ctx->Count(Counter::kCoresetRepairSuppressed);
  }

  AnonymizationResult result;
  result.partition = std::move(outcome.partition);
  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "coreset s=" << s << " strategy="
        << CoresetStrategyName(options_.strategy)
        << " inner=" << inner_->name()
        << " groups=" << result.partition.num_groups()
        << " repairs=" << outcome.repair_merges;
  if (outcome.repair_suppressed) notes << " degraded=repair_suppressed";
  if (resumed) notes << " resumed=1";
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
