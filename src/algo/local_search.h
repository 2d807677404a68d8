#ifndef KANON_ALGO_LOCAL_SEARCH_H_
#define KANON_ALGO_LOCAL_SEARCH_H_

#include <memory>

#include "algo/anonymizer.h"

/// \file
/// Local-search post-optimizer, implementing the improvement direction
/// the paper leaves open ("we are confident this bound can be improved
/// ... beyond the scope of this work"): take any valid partition and
/// apply cost-decreasing moves until a local optimum:
///
///   * MOVE  — relocate a row from a group with > k members to another
///     group;
///   * SWAP  — exchange two rows between different groups.
///
/// Every probe is evaluated on per-group column bit masks
/// (core/column_mask.h) and returns the exact ANON integers, so the
/// moves are those of a rescanning implementation.
///
/// Both preserve the >= k group-size invariant, so every intermediate
/// state is a valid k-anonymization and the final cost is <= the input
/// cost. Used standalone (wrapping a base algorithm) and as the
/// `+local_search` ablation arm of E8.

namespace kanon {

/// Configuration for LocalSearchAnonymizer and ImprovePartition.
struct LocalSearchOptions {
  /// Max full passes; 0 disables improvement entirely. With g groups of
  /// about s rows, a pass's SWAP scan is O(g^2 * s * m) to classify
  /// each pair's rows plus O(g^2 * s^2 * ceil(m/64)) for its probes, and
  /// its MOVE scan O(g * m) per row of a group above k rows.
  size_t max_passes = 64;
};

/// Improves `partition` in place; returns the number of applied moves.
/// Requires a valid partition with all groups >= k. Every intermediate
/// state is valid, so a stop via `ctx` (checked between improvement
/// scans) simply keeps the best-so-far partition.
size_t ImprovePartition(const Table& table, size_t k,
                        const LocalSearchOptions& options,
                        Partition* partition, RunContext* ctx = nullptr);

/// Anonymizer adapter: runs `base`, then improves its partition.
class LocalSearchAnonymizer : public Anonymizer {
 public:
  LocalSearchAnonymizer(std::unique_ptr<Anonymizer> base,
                        LocalSearchOptions options = {});

  using Anonymizer::Run;
  std::string name() const override;
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override;

 private:
  std::unique_ptr<Anonymizer> base_;
  LocalSearchOptions options_;
};

}  // namespace kanon

#endif  // KANON_ALGO_LOCAL_SEARCH_H_
