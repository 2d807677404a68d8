#ifndef KANON_ALGO_BRANCH_BOUND_H_
#define KANON_ALGO_BRANCH_BOUND_H_

#include <cstddef>

#include "algo/anonymizer.h"

/// \file
/// Exact optimal k-anonymity by branch & bound over anchored groups.
///
/// Search: repeatedly take the lowest unassigned row as anchor and branch
/// on every candidate group (anchor + a (k-1)..(2k-2)-subset of unassigned
/// rows). Prune with
///   current cost + sum_{r unassigned} d_{k-1}NN(r)  >=  incumbent,
/// where the per-row term is the k-NN lower bound of core/bounds.h
/// evaluated on the full table (a superset of candidates, hence valid).
///
/// Seed: the incumbent starts as the cluster_greedy+local_search answer,
/// so the search never returns anything costlier.
/// Ties: until the search first replaces the seed, a complete partition
/// that only ties it also replaces it. A search that finishes therefore
/// returns the first optimum in DFS order, whatever the seed.
///
/// Nodes: every `Assign` step and every evaluated candidate group is one
/// node, charged to the RunContext and counted in `notes` (`nodes=`).
/// A node budget (max_nodes, or the context's) thus bounds the search's
/// work; when it runs out the incumbent is returned, never worse than
/// the seed. A node costs O(⌈m/64⌉) and allocates nothing: the group
/// being built carries running column-mask, weight and k-NN sums.
///
/// Complements exact_dp: no 2^n memory, so it reaches slightly larger n
/// when the instance has pruning-friendly structure (e.g. planted
/// clusters), and it cross-checks the DP in tests.

namespace kanon {

/// Configuration for BranchBoundAnonymizer.
struct BranchBoundOptions {
  /// Hard instance-size cap.
  size_t max_rows = 28;
  /// Optional cap on search nodes; 0 = unlimited. A node is one
  /// assignment step or one evaluated candidate group. When the cap is
  /// hit the incumbent is returned: a valid anonymization no costlier
  /// than the cluster_greedy+local_search seed, possibly suboptimal.
  /// `notes` records the truncation.
  size_t max_nodes = 0;
};

/// Exact (or anytime, when max_nodes truncates) solver.
class BranchBoundAnonymizer : public Anonymizer {
 public:
  explicit BranchBoundAnonymizer(BranchBoundOptions options = {});

  using Anonymizer::Run;
  std::string name() const override { return "branch_bound"; }
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override;

 private:
  BranchBoundOptions options_;
};

}  // namespace kanon

#endif  // KANON_ALGO_BRANCH_BOUND_H_
