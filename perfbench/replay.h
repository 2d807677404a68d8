#ifndef KANON_PERFBENCH_REPLAY_H_
#define KANON_PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "workload.h"

/// \file
/// The traced replay: the served requests run again, one at a time in
/// admission order, through each layer's public functions along the
/// worker's path (KNET decode, CSV parse, validation, fingerprint,
/// result cache, distance oracle, fallback chain, suppression, CSV
/// render, KNET encode). Each call gets one span. Spans stay in memory
/// and are written when the replay ends.

namespace perfbench {

/// One served request as the client saw it.
struct ServedRequest {
  uint64_t job_id = 0;
  uint32_t table = 0;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  uint64_t cost = 0;
  std::string chain;
};

/// Span recorder for a single replay thread. Disabled, it reads no
/// clock and records nothing, which is what the overhead run measures.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    /// Index of the enclosing span within the same request; -1 = root.
    int32_t parent = -1;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Requests whose raw spans are kept for the span file; every
  /// request is still folded into the per-name totals.
  static constexpr uint64_t kKeptRequests = 2000;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Stable id for a span name.
  uint32_t Intern(const std::string& name);

  /// Marks `name` as a step of the worker's Execute path (the part the
  /// service reports as run_ms).
  void MarkExecutePath(uint32_t name) { execute_path_.push_back(name); }

  void BeginRequest(uint64_t request);
  /// Folds the request's spans into the totals and returns the sum of
  /// its Execute-path spans in milliseconds.
  double EndRequest();

  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(uint32_t name);
  /// Closes span `index` and returns its duration in nanoseconds.
  int64_t End(int32_t index);

  /// Total nanoseconds and count of spans named `name` so far.
  int64_t TotalNs(const std::string& name) const;
  uint64_t Count(const std::string& name) const;

  /// Writes the kept spans as CSV: request,index,parent,name,start_ns,
  /// end_ns (times relative to the tracer's creation).
  void Write(std::ostream& out) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<uint32_t> execute_path_;
  std::vector<int64_t> total_ns_;
  std::vector<uint64_t> count_;
  uint64_t request_ = 0;
  std::vector<Span> current_;
  std::vector<int32_t> open_;
  std::vector<Span> kept_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const int32_t index_;
};

/// What a replay found.
struct ReplayResult {
  uint64_t requests = 0;
  double wall_s = 0.0;
  /// Wall time of the first `prefix` requests, less diagnostic re-runs.
  double prefix_s = 0.0;
  /// Requests whose replayed chain string or cost differs from the
  /// served answer's; the first one is described.
  uint64_t mismatches = 0;
  std::string first_mismatch;
  /// Per replayed request: the sum of its Execute-path spans (traced
  /// replays only).
  std::vector<double> execute_ms;
  /// Wall time spent in diagnostic re-runs that serving does not do
  /// (FinalizeResult, DiameterSum, IsValidPartition).
  double diagnostic_s = 0.0;
  uint64_t chain_runs = 0;
  uint64_t stages_run = 0;
  /// Nanoseconds in the stage each chain accepted.
  int64_t accepted_stage_ns = 0;
  uint64_t oracle_builds = 0;
  /// n^2 * sizeof(ColId) summed over dense oracle builds (computed from
  /// the table shape, not measured).
  double oracle_dense_bytes = 0.0;
  uint64_t request_frame_bytes = 0;
  uint64_t response_frame_bytes = 0;
  uint64_t request_csv_bytes = 0;
  /// First chain run per distinct table: nodes charged, and cost.
  std::map<uint32_t, uint64_t> nodes_by_table;
  std::map<uint32_t, uint64_t> cost_by_table;
};

/// Replays the first `count` requests of `served` (sorted by job id)
/// through `tracer`, timing the first `prefix` of them separately. With
/// a disabled tracer the chain runs exactly as the worker builds it;
/// with an enabled one each stage is wrapped for timing through
/// FallbackOptions::make_stage, and the first accepted partition of
/// each distinct table is re-run through FinalizeResult, DiameterSum
/// and IsValidPartition.
ReplayResult Replay(const Workload& workload,
                    const std::vector<ServedRequest>& served,
                    Tracer* tracer, size_t count, size_t prefix);

/// Sum over `tables` of the certified k-NN lower bound (core/bounds).
uint64_t SumKnnLowerBound(const Workload& workload,
                          const std::map<uint32_t, uint64_t>& tables);

}  // namespace perfbench

#endif  // KANON_PERFBENCH_REPLAY_H_
