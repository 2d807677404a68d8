#ifndef KANON_DATA_PACKED_TABLE_H_
#define KANON_DATA_PACKED_TABLE_H_

#include <span>
#include <vector>

#include "data/table.h"
#include "data/value.h"

/// \file
/// Columnar mirror of a `Table`.
///
/// `Table` stores rows contiguously (row-major), which is the right
/// layout for the Hamming kernels that compare whole rows. Everything
/// that scans *by attribute* — per-column mode counting, per-shard
/// distinct counts, the content fingerprint of the service cache —
/// wants the transpose: one contiguous code array per column, so the
/// inner equality/count loops touch sequential memory and vectorize.
/// `PackedTable` is that transpose, built in O(nm).

namespace kanon {

/// Rows per block of AddMismatches.
inline constexpr RowId kMismatchBlock = 64;

/// out[i] += [column[i] != code] for the kMismatchBlock rows of one
/// block. The fixed trip count and the `__restrict` parameters are what
/// let GCC vectorize it at -O2.
template <typename Count>
void AddBlockMismatches(const ValueCode* __restrict column, ValueCode code,
                        Count* __restrict out) {
  for (RowId i = 0; i < kMismatchBlock; ++i) {
    out[i] += static_cast<Count>(column[i] != code);
  }
}

/// out[i] += [column[i] != code] for i < n: one column's share of the
/// Hamming distances from `code`'s row to every row. GCC at -O2 does not
/// vectorize this as one open-ended loop, so it runs block by block with
/// a scalar tail.
template <typename Count>
void AddMismatches(const ValueCode* column, ValueCode code, RowId n,
                   Count* out) {
  RowId b = 0;
  for (; n - b >= kMismatchBlock; b += kMismatchBlock) {
    AddBlockMismatches(column + b, code, out + b);
  }
  for (; b < n; ++b) out[b] += static_cast<Count>(column[b] != code);
}

/// Column-major copy of a Table's codes. Holds copies (not pointers into
/// the source), so it remains valid independently of the source table's
/// lifetime.
class PackedTable {
 public:
  /// Transposes `table`. O(nm).
  explicit PackedTable(const Table& table);

  RowId num_rows() const { return num_rows_; }
  ColId num_columns() const { return static_cast<ColId>(cols_.size()); }

  /// Contiguous code array of column `c` (one entry per row).
  std::span<const ValueCode> column(ColId c) const;

 private:
  RowId num_rows_ = 0;
  std::vector<std::vector<ValueCode>> cols_;
};

}  // namespace kanon

#endif  // KANON_DATA_PACKED_TABLE_H_
