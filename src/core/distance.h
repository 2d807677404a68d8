#ifndef KANON_CORE_DISTANCE_H_
#define KANON_CORE_DISTANCE_H_

#include <span>

#include "data/table.h"
#include "data/value.h"

/// \file
/// The paper's Definition 4.1: `d(u, v) = |{j : u[j] != v[j]}|` (Hamming
/// distance over coded rows) and the diameter `d(S) = max_{u,v in S}
/// d(u, v)`. The distance is a metric.
///
/// Solvers that probe many pairs go through the `DistanceOracle`
/// (core/distance_oracle.h), which holds the all-pairs table for small
/// instances and accounts its memory against the run's budget.

namespace kanon {

/// Hamming distance between two coded vectors of equal length.
ColId HammingDistance(std::span<const ValueCode> u,
                      std::span<const ValueCode> v);

/// Hamming distance between two rows of `table`.
ColId RowDistance(const Table& table, RowId a, RowId b);

/// Diameter of the row set `rows` (0 for empty or singleton sets).
ColId SetDiameter(const Table& table, std::span<const RowId> rows);

}  // namespace kanon

#endif  // KANON_CORE_DISTANCE_H_
