#include "algo/branch_bound.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "algo/cluster_greedy.h"
#include "algo/local_search.h"
#include "ckpt/checkpoint.h"
#include "core/bounds.h"
#include "core/column_mask.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "fault/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// DFS state for the exact search.
///
/// A search node costs O(⌈m/64⌉) and allocates nothing. The rows of the
/// committed groups, then the group being built, sit on one flat stack
/// (`rows_`; `group_ends_` marks where each committed group ends), and
/// every level's candidates on another. The group being built carries
/// three running values: its disagreeing-column mask (the OR of the
/// precomputed anchor-vs-row masks of its rows; the anchor is its first
/// row, so this is exactly the columns AnonCost counts), its weight and
/// its k-NN lower-bound sum. A Partition is built only when the
/// incumbent is replaced.
class Search {
 public:
  Search(const Table& table, const DistanceOracle& dm, size_t k,
         size_t max_nodes, RunContext* ctx)
      : n_(table.num_rows()),
        words_(MaskWords(table.num_columns())),
        k_(k),
        max_nodes_(max_nodes),
        ctx_(ctx) {
    assigned_.assign(n_, 0);
    row_lb_.resize(n_);
    weight_.resize(n_);
    for (RowId r = 0; r < n_; ++r) {
      row_lb_[r] = (k >= 2) ? dm.KthNearestDistance(
                                  r, static_cast<RowId>(k - 1))
                            : 0;
      remaining_lb_ += row_lb_[r];
      weight_[r] = table.row_weight(r);
    }
    pair_masks_.assign(static_cast<size_t>(n_) * n_ * words_, 0);
    for (RowId a = 0; a < n_; ++a) {
      const std::span<const ValueCode> anchor = table.row(a);
      for (RowId r = a + 1; r < n_; ++r) {
        OrDiffMask(table.row(r), anchor, PairMask(a, r));
      }
    }
    masks_.assign((static_cast<size_t>(n_) + 1) * words_, 0);
    rows_.reserve(n_);
    group_ends_.reserve(n_);
    // Each DFS level holds at most n candidates and there are at most n
    // levels, so the candidate stack never reallocates.
    candidates_.reserve(static_cast<size_t>(n_) * n_);
  }

  /// Runs the search starting from an incumbent partition/cost. Until
  /// the first replacement a partition that only ties the incumbent
  /// also replaces it (the bound starts one above its cost), so a
  /// search that finishes returns the first optimum in DFS order,
  /// whatever incumbent it started from.
  void Run(Partition incumbent, size_t incumbent_cost) {
    best_partition_ = std::move(incumbent);
    best_cost_ = incumbent_cost;
    bound_ = incumbent_cost + 1;
    Assign(0);
  }

  const Partition& best_partition() const { return best_partition_; }
  size_t best_cost() const { return best_cost_; }
  size_t nodes() const { return nodes_; }
  bool truncated() const { return truncated_; }

 private:
  /// Charges one search node: an Assign call or an evaluated group.
  /// True when the search must stop.
  bool NodeBudgetExceeded() {
    ++nodes_;
    if (max_nodes_ != 0 && nodes_ >= max_nodes_) {
      truncated_ = true;
      return true;
    }
    // Cooperative checkpoint: one per search node, with the clock read
    // strided so pruning-heavy searches stay cheap. An injected fault
    // expires the deadline: the anytime incumbent is still returned.
    ctx_->ChargeNodes();
    if ((nodes_ & 0x3f) == 0) {
      if (KANON_FAULT_POINT("branch_bound.node")) {
        ctx_->MarkStopped(StopReason::kDeadline);
      }
      if (ctx_->ShouldStop()) {
        truncated_ = true;
        return true;
      }
      if (ctx_->CheckpointDue()) {
        // The incumbent is the whole resumable state: a search that
        // finishes returns the first optimum in DFS order whatever its
        // incumbent (see Run), so restarting the DFS from the root with
        // this one lands on the bit-identical final partition.
        CheckpointWriter w;
        w.PutU64(best_cost_);
        w.PutU64(nodes_);
        w.PutPartition(best_partition_);
        (void)ctx_->EmitCheckpoint("branch_bound", w.bytes());
      }
    }
    return false;
  }

  /// Outer recursion: all rows < `from_hint` are known-assigned.
  void Assign(RowId from_hint) {
    if (truncated_) return;
    if (NodeBudgetExceeded()) return;
    // Find the anchor: lowest unassigned row.
    RowId anchor = from_hint;
    while (anchor < n_ && assigned_[anchor]) ++anchor;
    if (anchor == n_) {
      if (current_cost_ < bound_) {
        best_cost_ = current_cost_;
        bound_ = current_cost_;
        StoreIncumbent();
      }
      return;
    }
    // Candidates for the anchor's group, pushed on the shared stack.
    const size_t first = candidates_.size();
    for (RowId r = anchor + 1; r < n_; ++r) {
      if (!assigned_[r]) candidates_.push_back(r);
    }
    const size_t last = candidates_.size();
    if (last - first + 1 >= k_) {  // else no group can be formed
      const size_t begin = rows_.size();
      rows_.push_back(anchor);
      std::fill_n(MaskAt(begin), words_, uint64_t{0});
      Extend(begin, first, last, weight_[anchor], row_lb_[anchor]);
      rows_.pop_back();
    }
    candidates_.resize(first);
  }

  /// Inner recursion: grow the group rows_[begin..] (anchor first, with
  /// running `weight` and k-NN sum `lb`) with candidates_[pos..last);
  /// every subset of size in [k, 2k-1] is tried.
  void Extend(size_t begin, size_t pos, size_t last, size_t weight,
              size_t lb) {
    if (truncated_) return;
    const size_t top = rows_.size() - 1;
    const size_t size = rows_.size() - begin;
    if (size >= k_) TryGroup(begin, weight, lb);
    if (size == 2 * k_ - 1) return;
    const RowId anchor = rows_[begin];
    const uint64_t* mask = MaskAt(top);
    uint64_t* next = MaskAt(top + 1);
    for (size_t i = pos; i < last; ++i) {
      const RowId r = candidates_[i];
      const uint64_t* pair = PairMask(anchor, r);
      for (size_t w = 0; w < words_; ++w) next[w] = mask[w] | pair[w];
      rows_.push_back(r);
      Extend(begin, i + 1, last, weight + weight_[r], lb + row_lb_[r]);
      rows_.pop_back();
      if (truncated_) return;
    }
  }

  /// Commits the group rows_[begin..], recurses, rolls back.
  void TryGroup(size_t begin, size_t weight, size_t group_lb) {
    if (NodeBudgetExceeded()) return;
    const size_t group_cost =
        weight * MaskCount(MaskAt(rows_.size() - 1), words_);
    // Prune: committed cost + this group + LB of what remains.
    const size_t projected =
        current_cost_ + group_cost + (remaining_lb_ - group_lb);
    if (projected >= bound_) return;

    const size_t end = rows_.size();
    for (size_t i = begin; i < end; ++i) assigned_[rows_[i]] = 1;
    current_cost_ += group_cost;
    remaining_lb_ -= group_lb;
    group_ends_.push_back(end);

    Assign(rows_[begin] + 1);

    group_ends_.pop_back();
    remaining_lb_ += group_lb;
    current_cost_ -= group_cost;
    for (size_t i = begin; i < end; ++i) assigned_[rows_[i]] = 0;
  }

  /// Copies the committed groups, in commit order, into the incumbent.
  void StoreIncumbent() {
    best_partition_.groups.resize(group_ends_.size());
    size_t begin = 0;
    for (size_t g = 0; g < group_ends_.size(); ++g) {
      best_partition_.groups[g].assign(rows_.begin() + begin,
                                       rows_.begin() + group_ends_[g]);
      begin = group_ends_[g];
    }
  }

  /// Columns on which rows a < r disagree, as `words_` 64-bit words.
  uint64_t* PairMask(RowId a, RowId r) {
    return pair_masks_.data() + (static_cast<size_t>(a) * n_ + r) * words_;
  }
  /// Disagreeing columns of the group being built, up to rows_[pos].
  uint64_t* MaskAt(size_t pos) { return masks_.data() + pos * words_; }

  const RowId n_;
  const size_t words_;
  const size_t k_;
  const size_t max_nodes_;
  RunContext* const ctx_;

  std::vector<uint8_t> assigned_;
  std::vector<ColId> row_lb_;
  std::vector<uint32_t> weight_;
  std::vector<uint64_t> pair_masks_;
  size_t remaining_lb_ = 0;

  std::vector<RowId> rows_;
  std::vector<size_t> group_ends_;
  std::vector<RowId> candidates_;
  std::vector<uint64_t> masks_;
  size_t current_cost_ = 0;

  Partition best_partition_;
  size_t best_cost_ = 0;
  /// Prune threshold: best_cost_ + 1 until the first replacement, then
  /// best_cost_.
  size_t bound_ = 0;
  size_t nodes_ = 0;
  bool truncated_ = false;
};

}  // namespace

BranchBoundAnonymizer::BranchBoundAnonymizer(BranchBoundOptions options)
    : options_(options) {}

AnonymizationResult BranchBoundAnonymizer::Run(const Table& table,
                                               size_t k,
                                               RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);
  WallTimer timer;
  if (static_cast<size_t>(n) > options_.max_rows) {
    if (!ctx->lenient()) {
      KANON_CHECK_LE(static_cast<size_t>(n), options_.max_rows)
          << "branch_bound is exponential in n";
    }
    ctx->MarkStopped(StopReason::kBudget);
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: n exceeds branch_bound max_rows");
  }

  const StatusOr<std::shared_ptr<const DistanceOracle>> oracle =
      SharedDistanceOracle(table, ctx);
  if (!oracle.ok()) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: " + oracle.status().message());
  }
  Search search(table, **oracle, k, options_.max_nodes, ctx);
  // Seed: the cluster_greedy+local_search answer. cluster_greedy runs
  // on this context, so it reuses the oracle above; the local search
  // gets no context, so the seed charges no node and writes no
  // checkpoint. A stop during the seed declines; after it, the search
  // never replaces the incumbent with anything costlier, so even a stop
  // at the first node is no worse than the heuristic.
  Partition incumbent =
      ClusterGreedyAnonymizer().Run(table, k, ctx).partition;
  if (incumbent.groups.empty()) {
    return StoppedResult(*ctx, timer.Seconds(), "stopped while seeding");
  }
  ImprovePartition(table, k, LocalSearchOptions{}, &incumbent);
  size_t incumbent_cost = PartitionCost(table, incumbent);
  bool resumed = false;
  if (const std::optional<std::string> state =
          ctx->resume_payload("branch_bound")) {
    // A checkpointed incumbent replaces the seed. It is hostile
    // input (it crossed a crash): every claim is re-verified and a bad
    // snapshot falls back to the cold seed.
    CheckpointReader r(*state);
    const size_t saved_cost = r.GetU64();
    r.GetU64();  // nodes at save time; informational only
    Partition saved = r.GetPartition();
    if (!r.failed() && r.AtEnd() &&
        IsValidPartition(saved, n, k, static_cast<size_t>(n)) &&
        PartitionCost(table, saved) == saved_cost &&
        saved_cost <= incumbent_cost) {
      incumbent = std::move(saved);
      incumbent_cost = saved_cost;
      resumed = true;
    }
  }
  search.Run(incumbent, incumbent_cost);

  // Even a truncated search holds a valid incumbent (seeded above), so
  // a deadline/budget stop degrades to "best found so far" rather than
  // nothing — branch & bound is the chain's anytime stage.
  AnonymizationResult result;
  result.partition = search.best_partition();
  FinalizeResult(table, &result);
  KANON_CHECK_EQ(result.cost, search.best_cost());
  result.seconds = timer.Seconds();
  result.termination = ctx->stop_reason();
  std::ostringstream notes;
  notes << "nodes=" << search.nodes() << (resumed ? " RESUMED" : "")
        << (search.truncated() ? " TRUNCATED" : "");
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
