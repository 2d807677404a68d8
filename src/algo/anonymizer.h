#ifndef KANON_ALGO_ANONYMIZER_H_
#define KANON_ALGO_ANONYMIZER_H_

#include <cstddef>
#include <memory>
#include <string>

#include "core/partition.h"
#include "core/suppressor.h"
#include "data/table.h"
#include "util/run_context.h"

/// \file
/// Common interface of every k-anonymization algorithm in the library:
/// the paper's two approximation algorithms, the exact solvers and the
/// literature baselines. An algorithm produces a partition of the rows
/// into groups of size >= k; the canonical suppressor for that partition
/// (star each group's disagreeing columns) is the anonymization.
///
/// Every run is governed by a RunContext (util/run_context.h): solvers
/// poll `ctx->ShouldStop()` at cooperative checkpoints, so a deadline,
/// node budget or cancellation ends the run within one checkpoint
/// interval. A stopped solver either returns its best valid incumbent
/// (anytime solvers: branch & bound, the post-optimizers) or an *empty*
/// partition when it has nothing valid yet (the set-cover family,
/// exact_dp mid-sweep); `termination` records which happened. The
/// `resilient` FallbackAnonymizer (algo/fallback.h) builds on this to
/// always return a valid partition.

namespace kanon {

/// Output of one anonymization run.
struct AnonymizationResult {
  /// Row groups; every group has size >= k and each row appears once.
  /// Empty (only) when the run was stopped before any valid partition
  /// existed — check `termination` before consuming.
  Partition partition;
  /// Stars inserted by the canonical suppressor of `partition` (the
  /// paper's objective value).
  size_t cost = 0;
  /// Wall-clock seconds spent inside Run().
  double seconds = 0.0;
  /// Free-form counters (nodes explored, cover iterations, ...).
  std::string notes;
  /// Why the run ended: StopReason::kNone means it ran to completion;
  /// kDeadline/kBudget/kCancelled mean the RunContext stopped it (or
  /// the solver declined a structural cap on a lenient context).
  StopReason termination = StopReason::kNone;
  /// Chain stage that produced `partition` (filled by the resilient
  /// fallback anonymizer; empty for direct solver runs).
  std::string stage;

  /// True iff the run finished without tripping any limit.
  bool completed() const { return termination == StopReason::kNone; }

  /// Materializes the canonical suppressor.
  Suppressor MakeSuppressor(const Table& table) const;
};

/// Abstract k-anonymizer.
class Anonymizer {
 public:
  virtual ~Anonymizer() = default;

  /// Stable machine-readable identifier ("greedy_cover", "exact_dp", ...).
  virtual std::string name() const = 0;

  /// Runs on `table` with privacy parameter k under execution-control
  /// context `ctx` (never null). Requires 1 <= k <= table.num_rows() (a
  /// relation with n < k rows cannot be k-anonymized at all, per
  /// Definition 2.2). When the run completes, implementations return a
  /// valid partition with all groups >= k and fill `cost` and `seconds`;
  /// when `ctx` stops the run they return either a valid incumbent or an
  /// empty partition, with `termination` set to the stop reason either
  /// way.
  virtual AnonymizationResult Run(const Table& table, size_t k,
                                  RunContext* ctx) = 0;

  /// Back-compat convenience: runs under a fresh unlimited, strict
  /// context. (Subclasses re-expose this via `using Anonymizer::Run;`.)
  AnonymizationResult Run(const Table& table, size_t k);
};

/// Validates a result against `table`/`k` and dies on violations; returns
/// the result by value for chaining. Used by tests and the harness.
AnonymizationResult ValidateResult(const Table& table, size_t k,
                                   AnonymizationResult result);

/// Fills `cost` of `result` from its partition in O(nm). The §4.1
/// diameter sum is O(Σ|S|²·m), so it is not computed here; callers that
/// study it call DiameterSum (core/cost.h).
void FinalizeResult(const Table& table, AnonymizationResult* result);

/// The "run stopped before any valid partition existed" result: empty
/// partition, termination = ctx->stop_reason(), cost zero.
AnonymizationResult StoppedResult(const RunContext& ctx, double seconds,
                                  std::string notes);

}  // namespace kanon

#endif  // KANON_ALGO_ANONYMIZER_H_
