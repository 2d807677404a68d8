#ifndef KANON_ALGO_MDAV_H_
#define KANON_ALGO_MDAV_H_

#include "algo/anonymizer.h"

/// \file
/// MDAV (Maximum Distance to AVerage vector; Domingo-Ferrer & Mateo-Sanz)
/// microaggregation baseline, adapted from numeric microaggregation to
/// the paper's categorical/Hamming setting: the "average vector" is the
/// per-column mode of the unassigned rows, distances are Hamming.
///
///   while >= 3k rows unassigned:
///     r = farthest row from the mode-centroid; group r with its k-1
///         nearest unassigned rows;
///     s = farthest unassigned row from r; group s with its k-1 nearest;
///   if >= 2k remain: group the farthest-from-centroid row with its k-1
///         nearest, then the rest form one group;
///   else: the rest form one group (size in [k, 3k-1]).
///
/// MDAV produces fixed-size-k groups except the final one — the
/// classic statistical-disclosure-control competitor to the clustering
/// baselines, used in E8-style comparisons.
///
/// The scans are incremental. Per-column counts of the unassigned rows'
/// codes are built once (after any resume) and decremented as rows are
/// assigned, so each centroid is one pass over the distinct codes (ties
/// to the lowest code, `*` last). The farthest-row scans read the
/// columnar mirror one contiguous column at a time, and the k-1 nearest
/// rows come from a partial sort of (distance, id) over the seed's
/// DistanceOracle row.

namespace kanon {

/// MDAV baseline.
class MdavAnonymizer : public Anonymizer {
 public:
  using Anonymizer::Run;
  std::string name() const override { return "mdav"; }
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override;
};

}  // namespace kanon

#endif  // KANON_ALGO_MDAV_H_
