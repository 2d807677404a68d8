#include "core/distance_oracle.h"

#include <algorithm>
#include <new>
#include <utility>

#include "fault/fault.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace kanon {

namespace {

/// Rows per tile of the blocked table fill. A 64-row tile of 16-column
/// uint32 codes is ~4 KiB per side, so one tile pair lives comfortably
/// in L1 and each row is reused 64 times per load.
constexpr RowId kDistanceTile = 64;

/// Tiled symmetric fill of the all-pairs table. Cell (x, y) with x < y
/// is written exactly once, by the tile pair (x/T, y/T), and tile rows
/// are distributed across workers by ParallelFor, so writes are
/// race-free and the result is bit-identical to the serial fill. With a
/// stopped context the unvisited tail is simply left zero — callers
/// must check ctx->ShouldStop() and discard the partial table.
void FillDistanceTiled(const Table& table, ColId* dist, RunContext* ctx) {
  const RowId n = table.num_rows();
  const ColId m = table.num_columns();
  const size_t num_tiles =
      (static_cast<size_t>(n) + kDistanceTile - 1) / kDistanceTile;
  ParallelFor(
      0, num_tiles, /*min_chunk=*/1,
      [&](size_t lo, size_t hi) {
        for (size_t ta = lo; ta < hi; ++ta) {
          const RowId a0 = static_cast<RowId>(ta * kDistanceTile);
          const RowId a1 =
              std::min<RowId>(n, a0 + kDistanceTile);
          for (size_t tb = ta; tb < num_tiles; ++tb) {
            // One cooperative checkpoint per tile pair: an injected
            // fault expires the deadline exactly like a real one.
            if (ctx != nullptr) {
              if (KANON_FAULT_POINT("distance.build")) {
                ctx->MarkStopped(StopReason::kDeadline);
              }
              if (ctx->ShouldStop()) return;
            }
            const RowId b0 = static_cast<RowId>(tb * kDistanceTile);
            const RowId b1 =
                std::min<RowId>(n, b0 + kDistanceTile);
            for (RowId a = a0; a < a1; ++a) {
              const ValueCode* ra = table.row(a).data();
              for (RowId b = (tb == ta ? a + 1 : b0); b < b1; ++b) {
                const ValueCode* rb = table.row(b).data();
                ColId d = 0;
                for (ColId j = 0; j < m; ++j) {
                  d += static_cast<ColId>(ra[j] != rb[j]);
                }
                dist[static_cast<size_t>(a) * n + b] = d;
                dist[static_cast<size_t>(b) * n + a] = d;
              }
            }
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
  if (n > options.dense_threshold) return oracle;

  const size_t cells = static_cast<size_t>(n) * n;
  const size_t bytes = cells * sizeof(ColId);
  // Overflow / address-space guard: refuse instead of throwing.
  if (n != 0 && (cells / n != n || bytes / sizeof(ColId) != cells)) {
    if (ctx != nullptr) ctx->MarkStopped(StopReason::kBudget);
    return Status::ResourceExhausted(
        "distance table: n^2 cell count overflows");
  }
  if (ctx != nullptr && !ctx->TryChargeMemory(bytes)) {
    return Status::ResourceExhausted(
        "distance table exceeds the run's memory budget");
  }
  // From here on the destructor releases the charge, on every path.
  oracle->lease_ctx_ = ctx;
  oracle->lease_bytes_ = bytes;
  try {
    oracle->dist_.resize(cells, 0);
  } catch (const std::bad_alloc&) {
    if (ctx != nullptr) ctx->MarkStopped(StopReason::kBudget);
    return Status::ResourceExhausted(
        "distance table allocation failed (bad_alloc)");
  }
  oracle->dense_ = true;
  FillDistanceTiled(table, oracle->dist_.data(), ctx);
  if (ctx != nullptr && ctx->ShouldStop()) {
    // The partially filled table is discarded with the oracle.
    return StopReasonToStatus(ctx->stop_reason());
  }
  return oracle;
}

DistanceOracle::~DistanceOracle() {
  if (lease_ctx_ != nullptr) lease_ctx_->ReleaseMemory(lease_bytes_);
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
  std::vector<ColId> dist(n_);
  for (RowId x = 0; x < n_; ++x) dist[x] = at(row, x);
  // at(row, row) = 0 is a minimum of the row, so the j-th smallest
  // distance to another row is the (j+1)-th smallest entry overall.
  std::nth_element(dist.begin(), dist.begin() + j, dist.end());
  return dist[j];
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
