#include "algo/exact_dp.h"

#include <bit>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "core/cost.h"
#include "fault/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

constexpr size_t kInf = std::numeric_limits<size_t>::max();

/// Enumerates all size-`s` subsets of `items`, invoking `fn` with the
/// OR-mask of each chosen subset. `fn` returns false to abort the
/// enumeration (cooperative cancellation).
template <typename Fn>
void ForEachSubsetMask(const std::vector<uint32_t>& item_bits, size_t s,
                       Fn&& fn) {
  const size_t p = item_bits.size();
  if (s > p) return;
  if (s == 0) {
    fn(0u);
    return;
  }
  std::vector<size_t> idx(s);
  for (size_t i = 0; i < s; ++i) idx[i] = i;
  for (;;) {
    uint32_t mask = 0;
    for (const size_t i : idx) mask |= item_bits[i];
    if (!fn(mask)) return;
    size_t i = s;
    bool advanced = false;
    while (i > 0) {
      --i;
      if (idx[i] + (s - i) < p) {
        ++idx[i];
        for (size_t j = i + 1; j < s; ++j) idx[j] = idx[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) return;
  }
}

/// ANON cost of the row set encoded by `mask`.
size_t GroupCost(const Table& table, uint32_t mask) {
  std::vector<RowId> rows;
  for (uint32_t m = mask; m != 0; m &= m - 1) {
    rows.push_back(static_cast<RowId>(std::countr_zero(m)));
  }
  return AnonCost(table, rows);
}

}  // namespace

ExactDpAnonymizer::ExactDpAnonymizer(ExactDpOptions options)
    : options_(options) {}

AnonymizationResult ExactDpAnonymizer::Run(const Table& table, size_t k,
                                           RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);
  WallTimer timer;
  if (static_cast<size_t>(n) > options_.max_rows) {
    if (!ctx->lenient()) {
      KANON_CHECK_LE(static_cast<size_t>(n), options_.max_rows)
          << "exact_dp is exponential in n";
    }
    ctx->MarkStopped(StopReason::kBudget);
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: n exceeds exact_dp max_rows");
  }

  const size_t group_max = std::min<size_t>(2 * k - 1, n);
  const uint32_t full = (n == 32) ? 0xffffffffu : ((1u << n) - 1u);

  // An injected allocation failure declines typed, like max_rows.
  if (KANON_FAULT_POINT("exact_dp.alloc")) {
    ctx->MarkStopped(StopReason::kBudget);
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: injected allocation failure");
  }

  // Precompute ANON for every candidate group mask (|S| in [k, 2k-1]).
  std::unordered_map<uint32_t, size_t> group_cost;
  bool stopped = false;
  {
    std::vector<uint32_t> all_bits(n);
    for (RowId r = 0; r < n; ++r) all_bits[r] = 1u << r;
    size_t enumerated = 0;
    for (size_t s = k; s <= group_max && !stopped; ++s) {
      ForEachSubsetMask(all_bits, s, [&](uint32_t mask) {
        if ((++enumerated & 0x3ff) == 0) {
          if (KANON_FAULT_POINT("exact_dp.precompute")) {
            ctx->MarkStopped(StopReason::kDeadline);
          }
          if (ctx->ShouldStop()) {
            stopped = true;
            return false;
          }
        }
        group_cost.emplace(mask, GroupCost(table, mask));
        return true;
      });
    }
  }
  if (stopped) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "stopped during candidate-group precompute");
  }

  std::vector<size_t> dp(static_cast<size_t>(full) + 1, kInf);
  std::vector<uint32_t> choice(static_cast<size_t>(full) + 1, 0);
  dp[0] = 0;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    // One dp state per mask; the checkpoint stride keeps the clock off
    // the inner subset enumeration.
    ctx->ChargeNodes();
    if ((mask & 0x3f) == 0) {
      if (KANON_FAULT_POINT("exact_dp.sweep")) {
        ctx->MarkStopped(StopReason::kDeadline);
      }
      if (ctx->ShouldStop()) {
        stopped = true;
        break;
      }
    }
    const int population = std::popcount(mask);
    if (static_cast<size_t>(population) < k) continue;
    const uint32_t low_bit = mask & (~mask + 1);
    // Remaining bits above the anchor.
    std::vector<uint32_t> rest_bits;
    rest_bits.reserve(static_cast<size_t>(population) - 1);
    for (uint32_t m = mask ^ low_bit; m != 0; m &= m - 1) {
      rest_bits.push_back(m & (~m + 1));
    }
    size_t best = kInf;
    uint32_t best_set = 0;
    const size_t hi = std::min(group_max - 1, rest_bits.size());
    for (size_t s = k - 1; s <= hi; ++s) {
      ForEachSubsetMask(rest_bits, s, [&](uint32_t bits) {
        const uint32_t set_mask = low_bit | bits;
        const size_t rest_cost = dp[mask ^ set_mask];
        if (rest_cost == kInf) return true;
        const auto it = group_cost.find(set_mask);
        KANON_CHECK(it != group_cost.end());
        const size_t total = it->second + rest_cost;
        if (total < best) {
          best = total;
          best_set = set_mask;
        }
        return true;
      });
    }
    dp[mask] = best;
    choice[mask] = best_set;
    if (mask == full) break;
  }
  if (stopped) {
    return StoppedResult(*ctx, timer.Seconds(), "stopped during dp sweep");
  }
  KANON_CHECK_NE(dp[full], kInf);

  // Reconstruct the optimal partition.
  AnonymizationResult result;
  uint32_t mask = full;
  while (mask != 0) {
    const uint32_t set_mask = choice[mask];
    KANON_CHECK_NE(set_mask, 0u);
    Group group;
    for (uint32_t m = set_mask; m != 0; m &= m - 1) {
      group.push_back(static_cast<RowId>(std::countr_zero(m)));
    }
    result.partition.groups.push_back(std::move(group));
    mask ^= set_mask;
  }

  FinalizeResult(table, &result);
  KANON_CHECK_EQ(result.cost, dp[full]);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "states=" << (static_cast<size_t>(full) + 1)
        << " candidate_groups=" << group_cost.size();
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
