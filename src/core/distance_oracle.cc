#include "core/distance_oracle.h"

#include <algorithm>
#include <array>
#include <limits>
#include <new>
#include <utility>

#include "data/packed_table.h"
#include "fault/fault.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace kanon {

namespace {

using Cell = DistanceOracle::Cell;

/// Strip fill of the all-pairs table: row a of the table is the sum
/// over columns c of [column_c[b] != column_c[a]], accumulated one
/// contiguous column at a time from the packed columns in `Code` (the
/// byte plane when the table has one, else the 4-byte codes). Rows are
/// distributed across workers by ParallelFor; every row costs the same,
/// so the static split is balanced, and each cell is written by one
/// worker only, so the result is bit-identical to the serial fill.
/// `dist` must start zeroed. With a stopped context the unvisited rows
/// are simply left zero — callers must check ctx->ShouldStop() and
/// discard the partial table.
template <typename Code>
void FillDistanceStrips(const PackedTable& packed, Cell* dist,
                        RunContext* ctx) {
  const RowId n = packed.num_rows();
  std::vector<const Code*> columns;
  for (ColId c = 0; c < packed.num_columns(); ++c) {
    columns.push_back(packed.codes<Code>(c).data());
  }
  // Chunks of 64 rows: a table that small fills inline, on the caller.
  ParallelFor(
      0, n, /*min_chunk=*/64,
      [&](size_t lo, size_t hi) {
        for (RowId a = static_cast<RowId>(lo); a < hi; ++a) {
          // One cooperative checkpoint per row: an injected fault
          // expires the deadline exactly like a real one.
          if (ctx != nullptr) {
            if (KANON_FAULT_POINT("distance.build")) {
              ctx->MarkStopped(StopReason::kDeadline);
            }
            if (ctx->ShouldStop()) return;
          }
          Cell* const row = dist + static_cast<size_t>(a) * n;
          for (const Code* column : columns) {
            AddMismatches(column, column[a], n, row);
          }
        }
      },
      ctx);
}

}  // namespace

StatusOr<std::unique_ptr<DistanceOracle>> DistanceOracle::Create(
    const Table& table, const DistanceOracleOptions& options,
    RunContext* ctx) {
  const RowId n = table.num_rows();
  std::unique_ptr<DistanceOracle> oracle(new DistanceOracle(table, n));
  // A cell holds d(a, b) <= m, so wider tables take the on-demand branch.
  if (n > options.dense_threshold ||
      table.num_columns() > std::numeric_limits<Cell>::max()) {
    return oracle;
  }

  const size_t cells = static_cast<size_t>(n) * n;
  const size_t bytes = cells * sizeof(Cell);
  // Overflow / address-space guard: refuse instead of throwing.
  if (n != 0 && (cells / n != n || bytes / sizeof(Cell) != cells)) {
    if (ctx != nullptr) ctx->MarkStopped(StopReason::kBudget);
    return Status::ResourceExhausted(
        "distance table: n^2 cell count overflows");
  }
  try {
    oracle->dist_.resize(cells, 0);
  } catch (const std::bad_alloc&) {
    if (ctx != nullptr) ctx->MarkStopped(StopReason::kBudget);
    return Status::ResourceExhausted(
        "distance table allocation failed (bad_alloc)");
  }
  oracle->dense_ = true;
  const PackedTable packed(table);
  if (packed.has_byte_codes()) {
    FillDistanceStrips<ByteCode>(packed, oracle->dist_.data(), ctx);
  } else {
    FillDistanceStrips<ValueCode>(packed, oracle->dist_.data(), ctx);
  }
  if (ctx != nullptr && ctx->ShouldStop()) {
    // The partially filled table is discarded with the oracle.
    return StopReasonToStatus(ctx->stop_reason());
  }
  return oracle;
}

ColId DistanceOracle::Diameter(std::span<const RowId> rows) const {
  ColId diameter = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      diameter = std::max(diameter, at(rows[i], rows[j]));
    }
  }
  return diameter;
}

ColId DistanceOracle::KthNearestDistance(RowId row, RowId j) const {
  KANON_CHECK_GE(j, 1u);
  KANON_CHECK_LT(j, n_);
  // A distance is an integer in [0, m], so counting the row's distances
  // by value finds the j-th smallest in O(n + m), with no allocation
  // below 256 columns. at(row, row) = 0 is a minimum of the row, so the
  // j-th smallest distance to another row is the (j+1)-th smallest
  // entry overall.
  const size_t values = static_cast<size_t>(table_.num_columns()) + 1;
  std::array<RowId, 256> small;
  std::vector<RowId> large;
  RowId* count = small.data();
  if (values > small.size()) {
    large.resize(values);
    count = large.data();
  }
  std::fill_n(count, values, RowId{0});
  for (RowId x = 0; x < n_; ++x) ++count[at(row, x)];
  RowId seen = 0;
  ColId d = 0;
  while ((seen += count[d]) <= j) ++d;
  return d;
}

namespace {

/// What SharedDistanceOracle stores in the RunContext scratch slot: the
/// oracle plus the table shape it was built for, so a stale entry (the
/// keyed address reused by a different or mutated table) is detected
/// and rebuilt instead of served.
struct OracleSlot {
  RowId n = 0;
  ColId m = 0;
  std::shared_ptr<const DistanceOracle> oracle;
};

}  // namespace

StatusOr<std::shared_ptr<const DistanceOracle>> SharedDistanceOracle(
    const Table& table, RunContext* ctx,
    const DistanceOracleOptions& options) {
  KANON_CHECK(ctx != nullptr);
  if (std::shared_ptr<void> held = ctx->GetScratch(&table)) {
    auto* slot = static_cast<OracleSlot*>(held.get());
    if (slot->n == table.num_rows() && slot->m == table.num_columns()) {
      return slot->oracle;
    }
  }
  StatusOr<std::unique_ptr<DistanceOracle>> created =
      DistanceOracle::Create(table, options, ctx);
  if (!created.ok()) {
    // Guarantee the latch so callers can uniformly StoppedResult.
    ctx->MarkStopped(StopReason::kBudget);
    return created.status();
  }
  auto slot = std::make_shared<OracleSlot>();
  slot->n = table.num_rows();
  slot->m = table.num_columns();
  slot->oracle = std::shared_ptr<const DistanceOracle>(
      std::move(created).value());
  std::shared_ptr<const DistanceOracle> oracle = slot->oracle;
  ctx->PutScratch(&table, std::move(slot));
  return oracle;
}

}  // namespace kanon
