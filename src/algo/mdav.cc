#include "algo/mdav.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <type_traits>

#include "ckpt/checkpoint.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "data/packed_table.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// A scan's distance counter: one byte on the byte plane, which mdav
/// scans only when m <= 255, else a ColId.
template <typename Code>
using ScanCount =
    std::conditional_t<std::is_same_v<Code, ByteCode>, uint8_t, ColId>;

/// Per-column counts of the unassigned rows' codes, built once and
/// decremented as rows are assigned, so the mode centroid costs one pass
/// over each column's distinct codes instead of a recount.
template <typename Code>
class ModeCounts {
 public:
  ModeCounts(const PackedTable& packed, const std::vector<bool>& assigned)
      : columns_(packed.num_columns()) {
    for (ColId c = 0; c < packed.num_columns(); ++c) {
      const std::span<const Code> column = packed.codes<Code>(c);
      Column& col = columns_[c];
      col.index.reserve(column.size());
      if constexpr (std::is_same_v<Code, ByteCode>) {
        // A byte code ranks through a 256-slot table: no sort, and no
        // search per cell. The codes present are read off a 256-bit set,
        // lowest first.
        std::array<uint64_t, 4> present{};
        for (const ByteCode code : column) {
          present[code / 64] |= uint64_t{1} << (code % 64);
        }
        std::array<uint32_t, 256> rank{};
        for (unsigned word = 0; word < present.size(); ++word) {
          for (uint64_t bits = present[word]; bits != 0; bits &= bits - 1) {
            const unsigned code = 64 * word + std::countr_zero(bits);
            rank[code] = static_cast<uint32_t>(col.codes.size());
            col.codes.push_back(static_cast<ByteCode>(code));
          }
        }
        for (const ByteCode code : column) col.index.push_back(rank[code]);
      } else {
        col.codes.assign(column.begin(), column.end());
        std::sort(col.codes.begin(), col.codes.end());
        col.codes.erase(std::unique(col.codes.begin(), col.codes.end()),
                        col.codes.end());
        for (const ValueCode code : column) {
          col.index.push_back(static_cast<uint32_t>(
              std::lower_bound(col.codes.begin(), col.codes.end(), code) -
              col.codes.begin()));
        }
      }
      col.count.assign(col.codes.size(), 0);
      for (RowId r = 0; r < column.size(); ++r) {
        if (!assigned[r]) ++col.count[col.index[r]];
      }
    }
  }

  void Remove(RowId r) {
    for (Column& col : columns_) --col.count[col.index[r]];
  }

  /// Per-column mode of the unassigned rows into `centroid`. Ties go to
  /// the lowest code, so `*` (the largest code of either plane) ranks
  /// last.
  void Centroid(std::vector<Code>* centroid) const {
    centroid->assign(columns_.size(), 0);
    for (size_t c = 0; c < columns_.size(); ++c) {
      const Column& col = columns_[c];
      size_t best = 0;
      for (size_t i = 0; i < col.count.size(); ++i) {
        if (col.count[i] > best) {
          best = col.count[i];
          (*centroid)[c] = col.codes[i];
        }
      }
    }
  }

 private:
  struct Column {
    std::vector<Code> codes;      // distinct codes, ascending
    std::vector<size_t> count;    // unassigned rows per code
    std::vector<uint32_t> index;  // each row's position in `codes`
  };
  std::vector<Column> columns_;
};

/// MDAV's scans over the packed columns in `Code`. Owns the unassigned
/// rows (`live_`, ascending) and the buffers the scans reuse, so taking
/// a group allocates nothing but the group.
template <typename Code>
class Scans {
 public:
  Scans(const PackedTable& packed, const DistanceOracle& dm,
        std::vector<bool>* assigned)
      : n_(packed.num_rows()), dm_(dm), assigned_(*assigned),
        counts_(packed, *assigned) {
    for (ColId c = 0; c < packed.num_columns(); ++c) {
      columns_.push_back(packed.codes<Code>(c).data());
    }
    for (RowId r = 0; r < n_; ++r) {
      if (!assigned_[r]) live_.push_back(r);
    }
  }

  size_t num_live() const { return live_.size(); }

  /// The unassigned rows, ascending, as the last group.
  Group TakeRest() { return std::move(live_); }

  /// Farthest unassigned row from the mode centroid.
  RowId FarthestFromCentroid() {
    counts_.Centroid(&center_);
    return FarthestFromCenter();
  }

  /// Farthest unassigned row from row `r`.
  RowId FarthestFromRow(RowId r) {
    CenterOnRow(r);
    return FarthestFromCenter();
  }

  /// Groups `seed` with its k-1 nearest unassigned rows by (distance,
  /// id), marks the group assigned and returns it. The distances are the
  /// seed's oracle row when the oracle is dense; on demand, where each
  /// lookup is a row-major RowDistance, they are the seed's row from the
  /// packed columns, as in the farthest scans.
  Group TakeGroupAround(RowId seed, size_t k) {
    const bool dense = dm_.dense();
    if (!dense) {
      CenterOnRow(seed);
      FillDistances();
    }
    // `near_` keeps the first k-1 rows by (distance, id) seen so far.
    // `live_` is ascending, so a row goes after every kept row of its
    // distance, and once k-1 are kept only a row nearer than the last
    // one enters.
    near_.clear();
    ColId bound = k == 1 ? 0 : std::numeric_limits<ColId>::max();
    for (const RowId r : live_) {
      const ColId d = dense ? dm_.at(seed, r) : dist_[r];
      if (d >= bound || r == seed) continue;
      if (near_.size() == k - 1) near_.pop_back();
      near_.insert(std::upper_bound(near_.begin(), near_.end(), d,
                                    [](ColId x, const auto& kept) {
                                      return x < kept.first;
                                    }),
                   {d, r});
      if (near_.size() == k - 1) bound = near_.back().first;
    }
    Group group = {seed};
    for (const auto& [d, r] : near_) group.push_back(r);
    for (const RowId r : group) {
      assigned_[r] = true;
      counts_.Remove(r);
    }
    std::erase_if(live_, [&](RowId r) { return assigned_[r]; });
    return group;
  }

 private:
  void CenterOnRow(RowId r) {
    center_.clear();
    for (const Code* column : columns_) center_.push_back(column[r]);
  }

  /// dist_[r]: the Hamming distance from `center_` to every row r,
  /// accumulated one packed column at a time, so the scan reads
  /// contiguous codes.
  void FillDistances() {
    dist_.assign(n_, 0);
    for (size_t c = 0; c < columns_.size(); ++c) {
      AddMismatches(columns_[c], center_[c], n_, dist_.data());
    }
  }

  /// Farthest row of `live_` from `center_` in Hamming distance, lowest
  /// id on ties.
  RowId FarthestFromCenter() {
    FillDistances();
    RowId best = live_.front();
    ScanCount<Code> best_distance = dist_[best];
    for (const RowId r : live_) {
      if (dist_[r] > best_distance) {
        best = r;
        best_distance = dist_[r];
      }
    }
    return best;
  }

  const RowId n_;
  const DistanceOracle& dm_;
  std::vector<bool>& assigned_;
  ModeCounts<Code> counts_;
  std::vector<const Code*> columns_;
  std::vector<RowId> live_;
  std::vector<Code> center_;
  std::vector<ScanCount<Code>> dist_;
  std::vector<std::pair<ColId, RowId>> near_;
};

/// MDAV's grouping phase from `assigned` on, appending groups to
/// `partition`. Returns false when `ctx` stops it, with the rows left
/// unassigned in `*unassigned`; the partial grouping is not a partition.
template <typename Code>
bool GroupRows(const PackedTable& packed, const DistanceOracle& dm,
               size_t k, RunContext* ctx, std::vector<bool>* assigned,
               Partition* partition, size_t* unassigned) {
  const RowId n = packed.num_rows();
  Scans<Code> scans(packed, dm, assigned);
  while (scans.num_live() >= 3 * k) {
    ctx->ChargeNodes();
    if (ctx->ShouldStop()) {
      *unassigned = scans.num_live();
      return false;
    }
    if (ctx->CheckpointDue()) {
      CheckpointWriter w;
      w.PutU64(n);
      std::string bitmap(n, '\0');
      for (RowId row = 0; row < n; ++row) {
        bitmap[row] = (*assigned)[row] ? 1 : 0;
      }
      w.PutBytes(bitmap);
      w.PutPartition(*partition);
      (void)ctx->EmitCheckpoint("mdav", w.bytes());
    }
    const RowId r = scans.FarthestFromCentroid();
    partition->groups.push_back(scans.TakeGroupAround(r, k));
    const RowId s = scans.FarthestFromRow(r);
    partition->groups.push_back(scans.TakeGroupAround(s, k));
  }
  if (scans.num_live() >= 2 * k) {
    const RowId r = scans.FarthestFromCentroid();
    partition->groups.push_back(scans.TakeGroupAround(r, k));
  }
  if (scans.num_live() > 0) partition->groups.push_back(scans.TakeRest());
  return true;
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
  // The byte plane serves the scans only when a distance fits a byte.
  const bool bytes = packed.has_byte_codes() &&
                     packed.num_columns() <= std::numeric_limits<uint8_t>::max();
  size_t unassigned = 0;
  const bool done =
      bytes ? GroupRows<ByteCode>(packed, dm, k, ctx, &assigned,
                                  &result.partition, &unassigned)
            : GroupRows<ValueCode>(packed, dm, k, ctx, &assigned,
                                   &result.partition, &unassigned);
  if (!done) {
    // The partial grouping is not a valid partition (unassigned rows
    // remain), so an interrupted MDAV declines like the other anytime
    // stages; its checkpoint carries the progress forward instead.
    return StoppedResult(*ctx, timer.Seconds(),
                         "stopped mid-phase with " +
                             std::to_string(unassigned) +
                             " rows unassigned");
  }

  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "groups=" << result.partition.num_groups()
        << (resumed ? " RESUMED" : "");
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
