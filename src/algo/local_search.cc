#include "algo/local_search.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/column_mask.h"
#include "core/cost.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// Column-state masks of every group of a partition, each ⌈m/64⌉ words
/// (core/column_mask.h). ANON(S) depends on S only through its
/// disagreeing columns, so with these every MOVE and SWAP probe below is
/// a few word operations and popcounts, and returns the exact integer a
/// rescan would: accept/reject decisions and tie-breaks are the same.
/// Per group: `one` and `two`, the columns where the members hold one
/// distinct code and two (the other `num_multi` hold three or more),
/// and per column the first member's code and the next distinct one
/// (`second` == `first` on a one-code column), against which a row is
/// classified (Classify). Per row, for the group holding it: `sole`,
/// the columns where its code is the group's only copy, and
/// `holds_first`, those where it holds `first`.
class GroupMasks {
 public:
  GroupMasks(const Table& table, const std::vector<Group>& groups)
      : table_(table),
        groups_(groups),
        m_(table.num_columns()),
        words_(MaskWords(m_)),
        weight_(groups.size()),
        num_two_(groups.size()),
        num_multi_(groups.size()),
        one_(groups.size() * words_),
        two_(groups.size() * words_),
        first_(groups.size() * m_),
        second_(groups.size() * m_),
        sole_(static_cast<size_t>(table.num_rows()) * words_),
        holds_first_(static_cast<size_t>(table.num_rows()) * words_) {
    for (size_t g = 0; g < groups.size(); ++g) Rebuild(g);
  }

  size_t words() const { return words_; }
  size_t cost(size_t g) const {
    return weight_[g] * (num_two_[g] + num_multi_[g]);
  }

  /// Recomputes group g's masks, and its members', from groups[g]
  /// (non-empty). O(|g| * m).
  void Rebuild(size_t g) {
    const Group& rows = groups_[g];
    rows_.clear();
    weight_[g] = 0;
    for (const RowId r : rows) {
      rows_.push_back(table_.row(r).data());
      weight_[g] += table_.row_weight(r);
      std::fill_n(Sole(r), words_, 0);
      std::fill_n(HoldsFirst(r), words_, 0);
    }
    uint64_t* const one = one_.data() + g * words_;
    uint64_t* const two = two_.data() + g * words_;
    std::fill_n(one, words_, 0);
    std::fill_n(two, words_, 0);
    num_multi_[g] = 0;
    slot_.resize(rows.size());
    for (ColId c = 0; c < m_; ++c) {
      distinct_.clear();
      for (size_t i = 0; i < rows.size(); ++i) {
        const ValueCode code = rows_[i][c];
        size_t d = 0;
        while (d < distinct_.size() && distinct_[d].first != code) ++d;
        if (d == distinct_.size()) distinct_.emplace_back(code, 0);
        ++distinct_[d].second;
        slot_[i] = static_cast<uint32_t>(d);
      }
      const uint64_t bit = uint64_t{1} << (c % 64);
      first_[g * m_ + c] = distinct_[0].first;
      second_[g * m_ + c] = distinct_[distinct_.size() > 1 ? 1 : 0].first;
      if (distinct_.size() == 1) {
        one[c / 64] |= bit;
      } else if (distinct_.size() == 2) {
        two[c / 64] |= bit;
      } else {
        ++num_multi_[g];
      }
      for (size_t i = 0; i < rows.size(); ++i) {
        if (distinct_[slot_[i]].second == 1) Sole(rows[i])[c / 64] |= bit;
        if (slot_[i] == 0) HoldsFirst(rows[i])[c / 64] |= bit;
      }
    }
    num_two_[g] = MaskCount(two, words_);
  }

  /// Classifies `row` against group g into out[0 .. 2 * words()):
  /// first the columns where its code is none of the group's (exact on
  /// g's one- and two-code columns, the only ones read), then those
  /// where it holds g's first code.
  void Classify(RowId row, size_t g, uint64_t* out) const {
    const ValueCode* const codes = table_.row(row).data();
    const ValueCode* const first = first_.data() + g * m_;
    const ValueCode* const second = second_.data() + g * m_;
    std::fill_n(out, 2 * words_, 0);
    for (ColId c = 0; c < m_; ++c) {
      const ValueCode code = codes[c];
      out[c / 64] |= static_cast<uint64_t>(code != first[c] &&
                                           code != second[c])
                     << (c % 64);
      out[words_ + c / 64] |= static_cast<uint64_t>(code == first[c])
                              << (c % 64);
    }
  }

  /// ANON(g + row), for `in` = Classify(row, g): a one-code column
  /// starts disagreeing where the row's code is absent.
  size_t CostWith(size_t g, RowId row, const uint64_t* in) const {
    const uint64_t* const one = one_.data() + g * words_;
    size_t d = num_two_[g] + num_multi_[g];
    for (size_t w = 0; w < words_; ++w) d += std::popcount(one[w] & in[w]);
    return (weight_[g] + table_.row_weight(row)) * d;
  }

  /// ANON(g - member): a two-code column stops disagreeing where the
  /// member held the only copy of its code.
  size_t CostWithout(size_t g, RowId member) const {
    const uint64_t* const two = two_.data() + g * words_;
    const uint64_t* const sole = Sole(member);
    size_t d = num_multi_[g];
    for (size_t w = 0; w < words_; ++w) {
      d += std::popcount(two[w] & ~sole[w]);
    }
    return (weight_[g] - table_.row_weight(member)) * d;
  }

  /// ANON(g - out + in_row), for `in` = Classify(in_row, g). A column of
  /// three or more codes keeps two. A two-code column stops disagreeing
  /// exactly where `out` held the only copy of one code and the new row
  /// holds the other. A one-code column starts disagreeing exactly where
  /// the new row's code is absent and `out` was not the only member.
  size_t CostReplacing(size_t g, RowId out, RowId in_row,
                       const uint64_t* in) const {
    const uint64_t* const one = one_.data() + g * words_;
    const uint64_t* const two = two_.data() + g * words_;
    const uint64_t* const sole = Sole(out);
    const uint64_t* const holds_first = HoldsFirst(out);
    size_t d = num_two_[g] + num_multi_[g];
    for (size_t w = 0; w < words_; ++w) {
      const uint64_t absent = in[w];
      const uint64_t other = holds_first[w] ^ in[words_ + w];
      d -= std::popcount(two[w] & sole[w] & ~absent & other);
      d += std::popcount(one[w] & absent & ~sole[w]);
    }
    return (weight_[g] - table_.row_weight(out) +
            table_.row_weight(in_row)) *
           d;
  }

  /// A lower bound on ANON(a') + ANON(b') after any swap between groups
  /// a and b, for `b0_in_a` = Classify(groups[b][0], a). Every row
  /// weighs at least 1, a column of three or more codes keeps two, and
  /// when both groups have two or more rows, a column where they are
  /// pure on different codes disagrees in both.
  size_t SwapLowerBound(size_t a, size_t b, const uint64_t* b0_in_a) const {
    size_t bound = groups_[a].size() * num_multi_[a] +
                   groups_[b].size() * num_multi_[b];
    if (groups_[a].size() < 2 || groups_[b].size() < 2) return bound;
    const uint64_t* const one_a = one_.data() + a * words_;
    const uint64_t* const one_b = one_.data() + b * words_;
    size_t split = 0;
    for (size_t w = 0; w < words_; ++w) {
      split += std::popcount(one_a[w] & one_b[w] & b0_in_a[w]);
    }
    return bound + (weight_[a] + weight_[b]) * split;
  }

 private:
  uint64_t* Sole(RowId r) { return sole_.data() + r * words_; }
  const uint64_t* Sole(RowId r) const { return sole_.data() + r * words_; }
  uint64_t* HoldsFirst(RowId r) { return holds_first_.data() + r * words_; }
  const uint64_t* HoldsFirst(RowId r) const {
    return holds_first_.data() + r * words_;
  }

  const Table& table_;
  const std::vector<Group>& groups_;
  const ColId m_;
  const size_t words_;
  std::vector<size_t> weight_, num_two_, num_multi_;
  std::vector<uint64_t> one_, two_;
  std::vector<ValueCode> first_, second_;
  std::vector<uint64_t> sole_, holds_first_;
  // Rebuild's buffers.
  std::vector<const ValueCode*> rows_;
  std::vector<std::pair<ValueCode, uint32_t>> distinct_;
  std::vector<uint32_t> slot_;
};

}  // namespace

size_t ImprovePartition(const Table& table, size_t k,
                        const LocalSearchOptions& options,
                        Partition* partition, RunContext* ctx) {
  size_t start_pass = 0;
  size_t applied = 0;
  if (ctx != nullptr) {
    if (const std::optional<std::string> state =
            ctx->resume_payload("local_search")) {
      // Snapshots are taken only at pass boundaries, so restoring the
      // partition and re-entering the loop at the saved pass replays
      // the identical deterministic pass sequence. The snapshot crossed
      // a crash: re-verify everything and ignore it on any mismatch.
      CheckpointReader r(*state);
      const size_t pass = r.GetU64();
      const size_t saved_applied = r.GetU64();
      const size_t saved_cost = r.GetU64();
      Partition saved = r.GetPartition();
      if (!r.failed() && r.AtEnd() && pass <= options.max_passes &&
          IsValidPartition(saved, table.num_rows(), k, table.num_rows()) &&
          PartitionCost(table, saved) == saved_cost &&
          saved_cost <= PartitionCost(table, *partition)) {
        *partition = std::move(saved);
        start_pass = pass;
        applied = saved_applied;
      }
    }
  }
  KANON_CHECK(IsValidPartition(*partition, table.num_rows(), k,
                               table.num_rows()));
  std::vector<Group>& groups = partition->groups;
  GroupMasks masks(table, groups);
  const size_t words = masks.words();
  // Rows classified against a group (GroupMasks::Classify), 2 * words
  // each: `in` for MOVE; for SWAP, b's rows against a and a's rows
  // against b, once per group pair and again after each applied swap.
  std::vector<uint64_t> in(2 * words);
  std::vector<uint64_t> b_in_a;
  std::vector<uint64_t> a_in_b;
  const auto classify_all = [&](size_t from, size_t into,
                                std::vector<uint64_t>* out) {
    out->resize(groups[from].size() * 2 * words);
    for (size_t i = 0; i < groups[from].size(); ++i) {
      masks.Classify(groups[from][i], into, out->data() + i * 2 * words);
    }
  };

  const auto stop = [&] {
    if (ctx == nullptr) return false;
    // Each stop probe charges one node so iteration budgets can
    // interrupt a pass mid-scan, deterministically.
    ctx->ChargeNodes();
    return ctx->ShouldStop();
  };
  for (size_t pass = start_pass; pass < options.max_passes && !stop();
       ++pass) {
    if (ctx != nullptr && ctx->CheckpointDue()) {
      size_t total = 0;
      for (size_t g = 0; g < groups.size(); ++g) total += masks.cost(g);
      CheckpointWriter w;
      w.PutU64(pass);
      w.PutU64(applied);
      w.PutU64(total);
      w.PutPartition(*partition);
      (void)ctx->EmitCheckpoint("local_search", w.bytes());
    }
    bool improved = false;
    // MOVE: row out of an oversized group.
    for (size_t a = 0; a < groups.size() && !stop(); ++a) {
      if (groups[a].size() <= k) continue;
      for (size_t i = 0; i < groups[a].size(); ++i) {
        const RowId row = groups[a][i];
        const size_t a_without = masks.CostWithout(a, row);
        size_t best_b = groups.size();
        size_t best_delta_gain = 0;
        for (size_t b = 0; b < groups.size(); ++b) {
          if (b == a) continue;
          masks.Classify(row, b, in.data());
          const size_t b_with = masks.CostWith(b, row, in.data());
          const size_t before = masks.cost(a) + masks.cost(b);
          const size_t after = a_without + b_with;
          if (after < before) {
            const size_t gain = before - after;
            if (best_b == groups.size() || gain > best_delta_gain) {
              best_b = b;
              best_delta_gain = gain;
            }
          }
        }
        if (best_b != groups.size()) {
          groups[best_b].push_back(row);
          groups[a].erase(groups[a].begin() + static_cast<ptrdiff_t>(i));
          masks.Rebuild(a);
          masks.Rebuild(best_b);
          ++applied;
          improved = true;
          if (groups[a].size() <= k) break;
          --i;  // re-examine this slot, now holding a different row
        }
      }
    }
    // SWAP: exchange rows between two groups.
    for (size_t a = 0; a < groups.size() && !stop(); ++a) {
      for (size_t b = a + 1; b < groups.size(); ++b) {
        classify_all(b, a, &b_in_a);
        // No swap of a pair at or above this bound can apply.
        if (masks.SwapLowerBound(a, b, b_in_a.data()) >=
            masks.cost(a) + masks.cost(b)) {
          continue;
        }
        classify_all(a, b, &a_in_b);
        for (size_t i = 0; i < groups[a].size(); ++i) {
          for (size_t j = 0; j < groups[b].size(); ++j) {
            const RowId row_a = groups[a][i];
            const RowId row_b = groups[b][j];
            const size_t a_new = masks.CostReplacing(
                a, row_a, row_b, b_in_a.data() + j * 2 * words);
            const size_t b_new = masks.CostReplacing(
                b, row_b, row_a, a_in_b.data() + i * 2 * words);
            if (a_new + b_new < masks.cost(a) + masks.cost(b)) {
              std::swap(groups[a][i], groups[b][j]);
              masks.Rebuild(a);
              masks.Rebuild(b);
              classify_all(b, a, &b_in_a);
              classify_all(a, b, &a_in_b);
              ++applied;
              improved = true;
            }
          }
        }
      }
    }
    if (!improved) break;
  }

  KANON_CHECK(IsValidPartition(*partition, table.num_rows(), k,
                               table.num_rows()));
  return applied;
}

LocalSearchAnonymizer::LocalSearchAnonymizer(
    std::unique_ptr<Anonymizer> base, LocalSearchOptions options)
    : base_(std::move(base)), options_(options) {
  KANON_CHECK(base_ != nullptr);
}

std::string LocalSearchAnonymizer::name() const {
  return base_->name() + "+local_search";
}

AnonymizationResult LocalSearchAnonymizer::Run(const Table& table,
                                               size_t k, RunContext* ctx) {
  WallTimer timer;
  AnonymizationResult result = base_->Run(table, k, ctx);
  if (result.partition.groups.empty()) {
    // Base declined or was stopped before producing anything usable;
    // there is nothing to improve.
    result.seconds = timer.Seconds();
    return result;
  }
  const size_t base_cost = result.cost;
  const size_t moves =
      ImprovePartition(table, k, options_, &result.partition, ctx);
  FinalizeResult(table, &result);
  KANON_CHECK_LE(result.cost, base_cost);
  result.seconds = timer.Seconds();
  result.termination = ctx->stop_reason();
  std::ostringstream notes;
  notes << "base_cost=" << base_cost << " moves=" << moves << " ["
        << result.notes << "]";
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
