#include "algo/branch_bound.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "algo/cluster_greedy.h"
#include "algo/local_search.h"
#include "ckpt/checkpoint.h"
#include "core/bounds.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "fault/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// DFS state for the exact search.
class Search {
 public:
  Search(const Table& table, const DistanceOracle& dm, size_t k,
         size_t max_nodes, RunContext* ctx)
      : table_(table), k_(k), max_nodes_(max_nodes), ctx_(ctx) {
    const RowId n = table.num_rows();
    assigned_.assign(n, false);
    row_lb_.resize(n);
    for (RowId r = 0; r < n; ++r) {
      row_lb_[r] = (k >= 2) ? dm.KthNearestDistance(
                                  r, static_cast<RowId>(k - 1))
                            : 0;
      remaining_lb_ += row_lb_[r];
    }
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
    current_.groups.clear();
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
    const RowId n = table_.num_rows();
    while (anchor < n && assigned_[anchor]) ++anchor;
    if (anchor == n) {
      if (current_cost_ < bound_) {
        best_cost_ = current_cost_;
        bound_ = current_cost_;
        best_partition_ = current_;
      }
      return;
    }
    // Candidates for the anchor's group.
    std::vector<RowId> candidates;
    for (RowId r = anchor + 1; r < n; ++r) {
      if (!assigned_[r]) candidates.push_back(r);
    }
    if (candidates.size() + 1 < k_) return;  // cannot form a group
    Group group = {anchor};
    Extend(&group, candidates, 0, anchor);
  }

  /// Inner recursion: grow `group` (which contains the anchor) with
  /// candidates[pos..]; every subset of size in [k, 2k-1] is tried.
  void Extend(Group* group, const std::vector<RowId>& candidates,
              size_t pos, RowId anchor) {
    if (truncated_) return;
    if (group->size() >= k_) TryGroup(*group, anchor);
    if (group->size() == 2 * k_ - 1) return;
    for (size_t i = pos; i < candidates.size(); ++i) {
      group->push_back(candidates[i]);
      Extend(group, candidates, i + 1, anchor);
      group->pop_back();
      if (truncated_) return;
    }
  }

  /// Commits `group`, recurses, rolls back.
  void TryGroup(const Group& group, RowId anchor) {
    if (NodeBudgetExceeded()) return;
    const size_t group_cost = AnonCost(table_, group);
    size_t group_lb = 0;
    for (const RowId r : group) group_lb += row_lb_[r];
    // Prune: committed cost + this group + LB of what remains.
    const size_t projected =
        current_cost_ + group_cost + (remaining_lb_ - group_lb);
    if (projected >= bound_) return;

    for (const RowId r : group) assigned_[r] = true;
    current_cost_ += group_cost;
    remaining_lb_ -= group_lb;
    current_.groups.push_back(group);

    Assign(anchor + 1);

    current_.groups.pop_back();
    remaining_lb_ += group_lb;
    current_cost_ -= group_cost;
    for (const RowId r : group) assigned_[r] = false;
  }

  const Table& table_;
  const size_t k_;
  const size_t max_nodes_;
  RunContext* const ctx_;

  std::vector<bool> assigned_;
  std::vector<ColId> row_lb_;
  size_t remaining_lb_ = 0;

  Partition current_;
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
  // checkpoint. The search never replaces the incumbent with anything
  // costlier, so even a stop at the first node is no worse than the
  // heuristic.
  Partition incumbent =
      ClusterGreedyAnonymizer().Run(table, k, ctx).partition;
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
