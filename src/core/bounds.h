#ifndef KANON_CORE_BOUNDS_H_
#define KANON_CORE_BOUNDS_H_

#include <cstddef>

#include "core/distance_oracle.h"
#include "core/partition.h"
#include "data/table.h"

/// \file
/// Certified lower bounds on OPT(V) for k-anonymity via suppression, used
/// by branch & bound and to audit approximation ratios on instances too
/// large for the exact solvers.
///
/// * Lemma 4.1 bound: OPT >= (k/2) * dΠ for any (k,2k-1)-partition Π that
///   minimizes the diameter sum; we expose the per-partition inequality
///   ANON(S) >= |S| * ceil(d(S)/2)... conservatively |S| * d(S) / 2.
/// * k-NN bound: each row v lies in a group with >= k-1 other rows, so at
///   least max(d_(k-1)NN(v), needed columns) of v's entries are starred;
///   summing a per-row floor gives a partition-free lower bound.

namespace kanon {

/// Per-row nearest-neighbour lower bound:
///   OPT >= sum_v d_{k-1}NN(v)
/// where d_{j}NN(v) is the distance from v to its j-th nearest other row.
/// Proof: v's group S has >= k-1 other members; the columns starred in v
/// are exactly S's disagreeing columns, which number >= max_{u in S}
/// d(u,v) >= d_{k-1}NN(v).
/// Distances come from `oracle`, so the bound also runs on instances
/// above its dense threshold.
size_t KnnLowerBound(const Table& table, const DistanceOracle& oracle,
                     size_t k);

/// Lemma 4.1 left inequality specialized to a concrete partition:
///   sum_S |S| * d(S) / 2 <= sum_S ANON(S).
/// Returns the left side (rounded down) for auditing.
size_t HalfDiameterVolumeBound(const Table& table, const Partition& p);

/// Lemma 4.1 right inequality with corrected constants (see DESIGN.md
/// "Lemma 4.1 constants"): ANON(S) <= |S| (|S|-1) d(S), because the
/// disagreeing-column count is at most the union of per-row difference
/// sets against an anchor. Returns sum_S |S| (|S|-1) d(S).
size_t DiameterVolumeUpperBound(const Table& table, const Partition& p);

/// The paper's as-printed (unsound in general) upper bound
/// sum_S |S| d(S); exposed so the E5 experiment can measure how often it
/// happens to hold in practice. Do NOT use as a certified bound.
size_t AsPrintedDiameterUpperBound(const Table& table, const Partition& p);

}  // namespace kanon

#endif  // KANON_CORE_BOUNDS_H_
