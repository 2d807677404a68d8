#ifndef KANON_CORE_GROUP_STATS_H_
#define KANON_CORE_GROUP_STATS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/table.h"
#include "data/value.h"

/// \file
/// Incremental group statistics for the Section 4 cost model.
///
/// A column of a group is *disagreeing* iff its members take more than
/// one distinct code in that column (a pre-suppressed star is just
/// another code: it matches other stars and nothing else), and
/// ANON(S) = |S| * #disagreeing — exactly what core/cost.h computes by
/// rescanning the whole group. `GroupStats` maintains per-column
/// distinct-code counts so membership edits and what-if probes cost
/// O(m) instead of O(|S| m):
///
///   * Add/Remove update the counts and the disagreeing-column tally;
///   * CostWith / CostWithout / CostReplacing answer "what would
///     ANON(S) be after this edit" without mutating anything.
///
/// All quantities are the same exact integers AnonCost produces, so
/// greedy/local-search/annealing decisions (and their tie-breaks) are
/// bit-identical to the rescanning implementations they replace; the
/// data-plane equivalence suite asserts this against random edit
/// sequences.
///
/// On a weighted instance (coreset sampling) |S| generalizes to the sum
/// of member weights, tracked incrementally alongside size_; on an
/// unweighted table weight() == size() and every cost is unchanged.

namespace kanon {

class GroupStats {
 public:
  /// Stats of the empty group over `table` (which must outlive this).
  explicit GroupStats(const Table& table);

  /// Stats of the group `rows`.
  GroupStats(const Table& table, std::span<const RowId> rows);

  /// Adds one member row.
  void Add(RowId row);

  /// Removes one member row (some member must hold this row's codes).
  void Remove(RowId row);

  /// Resets to the empty group.
  void Clear();

  size_t size() const { return size_; }

  /// Sum of member weights (== size() on an unweighted table).
  size_t weight() const { return weight_; }

  ColId num_disagreeing() const { return disagreeing_; }

  /// ANON(S) = GroupWeight(S) * #disagreeing columns.
  size_t anon_cost() const {
    return weight_ * static_cast<size_t>(disagreeing_);
  }

  /// ANON(S + {extra}) without mutating. O(m).
  size_t CostWith(RowId extra) const;

  /// ANON(S - {member}) without mutating; `member` must be in S. O(m).
  size_t CostWithout(RowId member) const;

  /// ANON(S - {out} + {in}) without mutating; `out` must be in S. O(m).
  size_t CostReplacing(RowId out, RowId in) const;

 private:
  /// Multiplicity of `code` among members in column `c` (0 if absent).
  uint32_t CountOf(ColId c, ValueCode code) const;

  const Table* table_;
  size_t size_ = 0;
  size_t weight_ = 0;
  ColId disagreeing_ = 0;
  /// counts_[c] lists (code, multiplicity) for the distinct codes the
  /// members take in column c. Flat and unsorted: groups hold O(k)
  /// distinct codes per column, so linear probes beat hashing.
  std::vector<std::vector<std::pair<ValueCode, uint32_t>>> counts_;
};

/// Per-column mode of the group `rows`, each row counted with its
/// weight (ties -> lowest code): the representative the shard-merge and
/// coreset-assignment repairs compare groups by (HammingDistance).
std::vector<ValueCode> WeightedModeCentroid(const Table& table,
                                            std::span<const RowId> rows);

}  // namespace kanon

#endif  // KANON_CORE_GROUP_STATS_H_
