#include "algo/greedy_cover.h"

#include <limits>
#include <sstream>

#include "algo/reduce.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "fault/fault.h"
#include "setcover/set_cover.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// Saturating binomial coefficient.
size_t Binomial(size_t n, size_t r) {
  if (r > n) return 0;
  r = std::min(r, n - r);
  size_t result = 1;
  for (size_t i = 1; i <= r; ++i) {
    const size_t numer = n - r + i;
    if (result > std::numeric_limits<size_t>::max() / numer) {
      return std::numeric_limits<size_t>::max();
    }
    result = result * numer / i;
  }
  return result;
}

/// Enumerates all size-`s` subsets of [0, n) in lexicographic order,
/// invoking `fn` with each subset.
/// `fn` returns false to abort the enumeration early.
template <typename Fn>
void ForEachCombination(RowId n, size_t s, Fn&& fn) {
  if (s == 0 || s > n) return;
  std::vector<RowId> combo(s);
  for (size_t i = 0; i < s; ++i) combo[i] = static_cast<RowId>(i);
  for (;;) {
    if (!fn(combo)) return;
    // Advance to the next combination.
    size_t i = s;
    while (i > 0) {
      --i;
      if (combo[i] + (s - i) < n) {
        ++combo[i];
        for (size_t j = i + 1; j < s; ++j) combo[j] = combo[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

}  // namespace

GreedyCoverAnonymizer::GreedyCoverAnonymizer(GreedyCoverOptions options)
    : options_(options) {}

size_t GreedyCoverAnonymizer::FamilySize(size_t n, size_t k) {
  size_t total = 0;
  for (size_t s = k; s <= 2 * k - 1; ++s) {
    const size_t c = Binomial(n, s);
    if (c == std::numeric_limits<size_t>::max() ||
        total > std::numeric_limits<size_t>::max() - c) {
      return std::numeric_limits<size_t>::max();
    }
    total += c;
  }
  return total;
}

AnonymizationResult GreedyCoverAnonymizer::Run(const Table& table,
                                               size_t k,
                                               RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);
  WallTimer timer;
  const size_t family_size = FamilySize(n, k);
  if (family_size > options_.max_family_size) {
    if (!ctx->lenient()) {
      KANON_CHECK_LE(family_size, options_.max_family_size)
          << "family C too large for greedy_cover; use ball_cover";
    }
    ctx->MarkStopped(StopReason::kBudget);
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: family C exceeds max_family_size");
  }
  // An injected allocation failure declines typed, like the size cap.
  if (KANON_FAULT_POINT("greedy_cover.alloc")) {
    ctx->MarkStopped(StopReason::kBudget);
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: injected allocation failure");
  }

  const StatusOr<std::shared_ptr<const DistanceOracle>> oracle =
      SharedDistanceOracle(table, ctx);
  if (!oracle.ok()) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: " + oracle.status().message());
  }
  const DistanceOracle& dm = **oracle;

  // Phase 0: materialize C, the family of all subsets with cardinality in
  // [k, 2k-1], weighted by diameter.
  std::vector<std::vector<uint32_t>> sets;
  std::vector<double> weights;
  bool stopped = false;
  size_t enumerated = 0;
  for (size_t s = k; s <= 2 * k - 1 && s <= n && !stopped; ++s) {
    ForEachCombination(n, s, [&](const std::vector<RowId>& combo) {
      if ((++enumerated & 0xfff) == 0) {
        if (KANON_FAULT_POINT("greedy_cover.family")) {
          ctx->MarkStopped(StopReason::kDeadline);
        }
        if (ctx->ShouldStop()) {
          stopped = true;
          return false;
        }
      }
      sets.emplace_back(combo.begin(), combo.end());
      weights.push_back(static_cast<double>(dm.Diameter(combo)));
      return true;
    });
  }
  if (stopped) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "stopped while materializing family C");
  }
  const VectorSetFamily family(n, std::move(sets), std::move(weights));

  // Phase 1: greedy cover.
  const SetCoverResult cover_result = GreedySetCover(family, ctx);
  if (!cover_result.complete) {
    KANON_CHECK(ctx->stop_reason() != StopReason::kNone)
        << "family C always covers the universe";
    return StoppedResult(*ctx, timer.Seconds(),
                         "stopped during greedy cover");
  }
  Partition cover;
  cover.groups.reserve(cover_result.chosen.size());
  for (const size_t s : cover_result.chosen) {
    const std::vector<uint32_t> members = family.Members(s);
    cover.groups.emplace_back(members.begin(), members.end());
  }

  // Phase 2: cover -> partition (diameter sum does not increase).
  AnonymizationResult result;
  result.partition = ReduceCoverToPartition(table, cover, k);

  // Phase 3: the canonical suppressor cost.
  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "family=" << family.NumSets()
        << " cover_sets=" << cover_result.chosen.size()
        << " cover_weight=" << cover_result.total_weight;
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
