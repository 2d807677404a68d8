#ifndef KANON_CORE_DISTANCE_ORACLE_H_
#define KANON_CORE_DISTANCE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/distance.h"
#include "data/table.h"
#include "data/value.h"
#include "util/run_context.h"
#include "util/status.h"

/// \file
/// The library's single source of pairwise row distances (Definition
/// 4.1). It picks its representation by instance size:
///
///   * **dense** (n <= options.dense_threshold and m <= 255): the
///     all-pairs n^2 table of one-byte cells (d(a, b) <= m fits a byte),
///     filled once row strip by row strip from the columnar mirror
///     (`PackedTable`): row a is the sum over columns c of
///     [column_c[b] != column_c[a]], in a loop the compiler vectorizes,
///     with rows spread over the worker pool. The loop reads the
///     mirror's byte plane (16 cells per SSE2 compare) when every code
///     fits a byte, and its 4-byte codes otherwise (4 cells per compare);
///     the two are one template. Lookups are O(1). A table that cannot
///     be allocated comes back as a typed StatusOr — never bad_alloc. The
///     fill is cancellation-aware and probes the `distance.build` fault
///     site once per row;
///   * **on demand** (above the threshold, or more than 255 columns): no
///     table at all. Each lookup is `RowDistance`, O(m). Center scans
///     (mdav, cluster_greedy) read each row's distances once, so a cache
///     would not pay for itself.
///
/// Both representations return exactly the same distances, so solver
/// outputs are bit-identical whichever path is active (the data-plane
/// equivalence suite asserts this).

namespace kanon {

struct DistanceOracleOptions {
  /// Largest n for which the dense n^2 table is materialized (a table
  /// with more than 255 columns never is).
  RowId dense_threshold = 4096;
};

/// Shared pairwise-distance component. Immutable after Create, so any
/// number of threads may read it without locking. Holds a reference to
/// the source table, which must outlive it.
class DistanceOracle {
 public:
  /// One cell of the dense table. A table with more columns than a cell
  /// can count is never dense.
  using Cell = uint8_t;

  /// Builds an oracle for `table`. `ctx` may be null (no cancellation).
  /// The dense branch fails with
  ///   * kResourceExhausted when the n^2 table overflows or cannot be
  ///     allocated (ctx latches kBudget), or
  ///   * the ctx stop status when the fill observed a deadline or a
  ///     cancellation.
  /// The on-demand branch cannot fail.
  static StatusOr<std::unique_ptr<DistanceOracle>> Create(
      const Table& table, const DistanceOracleOptions& options,
      RunContext* ctx);

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  RowId num_rows() const { return n_; }

  /// True when the dense n^2 table is materialized.
  bool dense() const { return dense_; }

  /// d(a, b). O(1) dense; O(m) on demand.
  ColId at(RowId a, RowId b) const {
    if (dense_) return dist_[static_cast<size_t>(a) * n_ + b];
    return RowDistance(table_, a, b);
  }

  /// Diameter of `rows`: max pairwise distance (0 for |rows| < 2).
  ColId Diameter(std::span<const RowId> rows) const;

  /// Distance from `row` to its j-th nearest *other* row, i.e. the j-th
  /// order statistic of {at(row, x) : x != row}, found by counting the
  /// row's distances by value in O(n + m). Used by the k-nearest-
  /// neighbour lower bound. Requires 1 <= j <= n-1.
  ColId KthNearestDistance(RowId row, RowId j) const;

 private:
  DistanceOracle(const Table& table, RowId n) : table_(table), n_(n) {}

  const Table& table_;
  const RowId n_;
  bool dense_ = false;
  std::vector<Cell> dist_;
};

/// The caller/RunContext-owned seam the solvers use. Returns the oracle
/// cached on `ctx` (or an ancestor) for this table if one exists,
/// otherwise builds one and caches it on `ctx`, so every solver handed
/// the same context (or a child of it) shares one oracle instead of
/// rebuilding the table. On failure the ctx is latched (kBudget, or the
/// stop reason) and the status is returned, so callers can uniformly
/// decline with StoppedResult. `ctx` must be non-null.
StatusOr<std::shared_ptr<const DistanceOracle>> SharedDistanceOracle(
    const Table& table, RunContext* ctx,
    const DistanceOracleOptions& options = {});

}  // namespace kanon

#endif  // KANON_CORE_DISTANCE_ORACLE_H_
