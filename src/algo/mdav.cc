#include "algo/mdav.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>

#include "ckpt/checkpoint.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "data/packed_table.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// Per-column counts of the unassigned rows' codes, built once and
/// decremented as rows are assigned, so the mode centroid costs one pass
/// over each column's distinct codes instead of a recount.
class ModeCounts {
 public:
  ModeCounts(const PackedTable& packed, const std::vector<bool>& assigned)
      : columns_(packed.num_columns()) {
    for (ColId c = 0; c < packed.num_columns(); ++c) {
      const std::span<const ValueCode> column = packed.column(c);
      Column& col = columns_[c];
      col.codes.assign(column.begin(), column.end());
      std::sort(col.codes.begin(), col.codes.end());
      col.codes.erase(std::unique(col.codes.begin(), col.codes.end()),
                      col.codes.end());
      col.count.assign(col.codes.size(), 0);
      col.index.reserve(column.size());
      for (RowId r = 0; r < column.size(); ++r) {
        col.index.push_back(static_cast<uint32_t>(
            std::lower_bound(col.codes.begin(), col.codes.end(),
                             column[r]) -
            col.codes.begin()));
        if (!assigned[r]) ++col.count[col.index.back()];
      }
    }
  }

  void Remove(RowId r) {
    for (Column& col : columns_) --col.count[col.index[r]];
  }

  /// Per-column mode of the unassigned rows. Ties go to the lowest
  /// code, so `*` (kSuppressedCode, the largest) ranks last.
  std::vector<ValueCode> Centroid() const {
    std::vector<ValueCode> centroid(columns_.size(), 0);
    for (size_t c = 0; c < columns_.size(); ++c) {
      const Column& col = columns_[c];
      size_t best = 0;
      for (size_t i = 0; i < col.count.size(); ++i) {
        if (col.count[i] > best) {
          best = col.count[i];
          centroid[c] = col.codes[i];
        }
      }
    }
    return centroid;
  }

 private:
  struct Column {
    std::vector<ValueCode> codes;  // distinct codes, ascending
    std::vector<size_t> count;     // unassigned rows per code
    std::vector<uint32_t> index;   // each row's position in `codes`
  };
  std::vector<Column> columns_;
};

/// Farthest row of `live` (the unassigned rows, ascending) from `center`
/// in Hamming distance, lowest id on ties. The distances accumulate one
/// packed column at a time into `dist`, so the scan reads contiguous
/// codes.
RowId FarthestFrom(const PackedTable& packed,
                   std::span<const ValueCode> center,
                   const std::vector<RowId>& live, std::vector<ColId>* dist) {
  dist->assign(packed.num_rows(), 0);
  for (ColId c = 0; c < packed.num_columns(); ++c) {
    AddMismatches(packed.column(c).data(), center[c], packed.num_rows(),
                  dist->data());
  }
  RowId best = live.front();
  for (const RowId r : live) {
    if ((*dist)[r] > (*dist)[best]) best = r;
  }
  return best;
}

/// Groups `seed` with its k-1 nearest rows of `live` by (distance, id),
/// marks the group assigned, drops it from `live` and `counts`, and
/// returns it.
Group TakeGroupAround(const DistanceOracle& dm, RowId seed, size_t k,
                      std::vector<RowId>* live, std::vector<bool>* assigned,
                      ModeCounts* counts) {
  std::vector<std::pair<ColId, RowId>> near;
  near.reserve(live->size());
  for (const RowId r : *live) {
    if (r != seed) near.emplace_back(dm.at(seed, r), r);
  }
  // The keys are unique, so this picks the same rows, in the same order,
  // as a full sort.
  std::partial_sort(near.begin(), near.begin() + (k - 1), near.end());
  Group group = {seed};
  for (size_t i = 0; i < k - 1; ++i) group.push_back(near[i].second);
  for (const RowId r : group) {
    (*assigned)[r] = true;
    counts->Remove(r);
  }
  std::erase_if(*live, [&](RowId r) { return (*assigned)[r]; });
  return group;
}

}  // namespace

AnonymizationResult MdavAnonymizer::Run(const Table& table, size_t k,
                                        RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);

  WallTimer timer;
  const StatusOr<std::shared_ptr<const DistanceOracle>> oracle =
      SharedDistanceOracle(table, ctx);
  if (!oracle.ok()) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: " + oracle.status().message());
  }
  const DistanceOracle& dm = **oracle;
  const PackedTable packed(table);
  std::vector<bool> assigned(n, false);
  bool resumed = false;

  AnonymizationResult result;
  if (const std::optional<std::string> state = ctx->resume_payload("mdav")) {
    // Snapshots are taken at the top of the main loop, where the whole
    // phase state is (assigned bitmap, groups so far). Both halves must
    // agree exactly — the bitmap rows are precisely the grouped rows,
    // every group has size k — or the snapshot is ignored (it crossed a
    // crash and is not trusted).
    CheckpointReader r(*state);
    const uint64_t saved_n = r.GetU64();
    const std::string_view bitmap = r.GetBytes();
    Partition saved = r.GetPartition();
    bool usable = !r.failed() && r.AtEnd() && saved_n == n &&
                  bitmap.size() == n;
    if (usable) {
      std::vector<bool> saved_assigned(n, false);
      size_t saved_count = 0;
      for (RowId row = 0; row < n && usable; ++row) {
        const char bit = bitmap[row];
        if (bit != 0 && bit != 1) usable = false;
        saved_assigned[row] = bit == 1;
        saved_count += bit == 1 ? 1u : 0u;
      }
      size_t grouped = 0;
      std::vector<bool> seen(n, false);
      for (const Group& group : saved.groups) {
        if (group.size() != k) usable = false;
        for (const RowId row : group) {
          if (!usable) break;
          if (row >= n || seen[row] || !saved_assigned[row]) usable = false;
          if (row < n) seen[row] = true;
          ++grouped;
        }
      }
      if (usable && grouped == saved_count) {
        assigned = std::move(saved_assigned);
        result.partition = std::move(saved);
        resumed = true;
      }
    }
  }
  ModeCounts counts(packed, assigned);
  std::vector<RowId> live;  // the unassigned rows, ascending
  for (RowId r = 0; r < n; ++r) {
    if (!assigned[r]) live.push_back(r);
  }
  std::vector<ColId> dist;
  while (live.size() >= 3 * k) {
    ctx->ChargeNodes();
    if (ctx->ShouldStop()) {
      // The partial grouping is not a valid partition (unassigned rows
      // remain), so an interrupted MDAV declines like the other anytime
      // stages; its checkpoint carries the progress forward instead.
      return StoppedResult(*ctx, timer.Seconds(),
                           "stopped mid-phase with " +
                               std::to_string(live.size()) +
                               " rows unassigned");
    }
    if (ctx->CheckpointDue()) {
      CheckpointWriter w;
      w.PutU64(n);
      std::string bitmap(n, '\0');
      for (RowId row = 0; row < n; ++row) {
        bitmap[row] = assigned[row] ? 1 : 0;
      }
      w.PutBytes(bitmap);
      w.PutPartition(result.partition);
      (void)ctx->EmitCheckpoint("mdav", w.bytes());
    }
    const RowId r = FarthestFrom(packed, counts.Centroid(), live, &dist);
    result.partition.groups.push_back(
        TakeGroupAround(dm, r, k, &live, &assigned, &counts));
    const RowId s = FarthestFrom(packed, table.row(r), live, &dist);
    result.partition.groups.push_back(
        TakeGroupAround(dm, s, k, &live, &assigned, &counts));
  }
  if (live.size() >= 2 * k) {
    const RowId r = FarthestFrom(packed, counts.Centroid(), live, &dist);
    result.partition.groups.push_back(
        TakeGroupAround(dm, r, k, &live, &assigned, &counts));
  }
  if (!live.empty()) result.partition.groups.push_back(std::move(live));

  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "groups=" << result.partition.num_groups()
        << (resumed ? " RESUMED" : "");
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
