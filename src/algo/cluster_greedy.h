#ifndef KANON_ALGO_CLUSTER_GREEDY_H_
#define KANON_ALGO_CLUSTER_GREEDY_H_

#include "algo/anonymizer.h"

/// \file
/// k-member greedy clustering baseline (Byun et al., DASFAA 2007 style):
/// repeatedly open a group at the row farthest from the previous group's
/// seed, then greedily add the unassigned row whose inclusion increases
/// the group's ANON cost the least, until the group has k members.
/// Leftover rows (< k of them) are folded into the group whose cost
/// grows least. A strong practical competitor on clustered data. It polls
/// its context once per group; a stop returns an empty partition. The
/// seed scan reads the distance oracle; a pick probes each candidate on
/// column bit masks (core/column_mask.h) in O(ceil(m/64)).

namespace kanon {

/// Greedy k-member clustering baseline.
class ClusterGreedyAnonymizer : public Anonymizer {
 public:
  using Anonymizer::Run;
  std::string name() const override { return "cluster_greedy"; }
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override;
};

}  // namespace kanon

#endif  // KANON_ALGO_CLUSTER_GREEDY_H_
