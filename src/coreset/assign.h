#ifndef KANON_CORESET_ASSIGN_H_
#define KANON_CORESET_ASSIGN_H_

#include <cstddef>
#include <vector>

#include "core/partition.h"
#include "data/table.h"
#include "util/run_context.h"
#include "util/status.h"

/// \file
/// Coreset assignment plane: maps every row of the full table onto the
/// partition an inner solver produced for the weighted sample, then
/// repairs undersized groups so the output is always a valid k-anonymous
/// partition of the full table.
///
/// Each coreset group is summarized by its weighted mode centroid (the
/// same per-column mode MDAV uses, with sample weights multiplying the
/// counts); full-table rows go to the nearest centroid by Hamming
/// distance (ties -> lowest group id), blocked across ParallelFor
/// workers with cooperative cancellation. Assignment can leave a group
/// with fewer than k rows — or none — so a repair pass merges every
/// undersized group into its nearest surviving neighbor (smallest group
/// first, ties -> lowest id). Repair provably terminates with all groups
/// >= k whenever n >= k; if it had to collapse the table into a single
/// group the outcome is flagged so the caller can report the typed
/// degradation (the result is then close to full suppression).

namespace kanon {

/// Result of AssignToCoresetGroups.
struct AssignmentOutcome {
  /// Valid k-anonymous partition of the full table.
  Partition partition;
  /// Undersized-group merges the repair pass performed.
  size_t repair_merges = 0;
  /// True when repair collapsed everything into one group — the typed
  /// "repair had to suppress" degradation.
  bool repair_suppressed = false;
};

/// Maps each of the full table's rows onto `sample_partition` (a
/// partition of `sample_table`, which must be the weighted
/// SelectRows(sample rows) view of `full`). Typed failures mirror the
/// sampler: kCancelled/kDeadlineExceeded when `ctx` stops (fault site
/// `coreset.assign` fires a deadline stop), kInvalidArgument on
/// structural mismatch (no groups, or k > n).
StatusOr<AssignmentOutcome> AssignToCoresetGroups(
    const Table& full, const Table& sample_table,
    const Partition& sample_partition, size_t k, RunContext* ctx);

}  // namespace kanon

#endif  // KANON_CORESET_ASSIGN_H_
