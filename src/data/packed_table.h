#ifndef KANON_DATA_PACKED_TABLE_H_
#define KANON_DATA_PACKED_TABLE_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "data/table.h"
#include "data/value.h"

/// \file
/// Columnar mirror of a `Table`.
///
/// `Table` stores rows contiguously (row-major), which is the right
/// layout for the Hamming kernels that compare whole rows. Everything
/// that scans *by attribute* — per-column mode counting, per-shard
/// distinct counts, the content fingerprint of the service cache, the
/// dense distance oracle's strip fill — wants the transpose: one
/// contiguous code array per column, so the inner equality/count loops
/// touch sequential memory and vectorize. `PackedTable` is that
/// transpose, built in O(nm).
///
/// Small alphabets are the common case (every census attribute has 2–10
/// values), so the transpose also keeps a *byte plane*: a one-byte copy
/// of every column, present exactly when every code in the table is
/// below 255 or is `*` (stored as 255). An equality kernel then compares
/// 16 cells per SSE2 instruction instead of 4. The 4-byte columns stay,
/// and they are the only plane of a table with a code of 255 or more,
/// such as one with a column of more than 255 distinct values.

namespace kanon {

/// A code of the byte plane: the low byte of the `ValueCode`, so `*`
/// (kSuppressedCode) is 255 and every other code is itself.
using ByteCode = uint8_t;

/// Rows per block of AddMismatches.
inline constexpr RowId kMismatchBlock = 128;

/// out[i] += [column[i] != code] for the kMismatchBlock rows of one
/// block. The fixed trip count and the `__restrict` parameters are what
/// let GCC vectorize it at -O2. `Code` is ByteCode or ValueCode.
template <typename Code, typename Count>
void AddBlockMismatches(const Code* __restrict column, Code code,
                        Count* __restrict out) {
  for (RowId i = 0; i < kMismatchBlock; ++i) {
    out[i] += static_cast<Count>(column[i] != code);
  }
}

/// out[i] += [column[i] != code] for i < n: one column's share of the
/// Hamming distances from `code`'s row to every row. GCC at -O2 does not
/// vectorize this as one open-ended loop, so it runs block by block with
/// a scalar tail.
template <typename Code, typename Count>
void AddMismatches(const Code* column, Code code, RowId n, Count* out) {
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
  /// Transposes `table` and adds the byte plane when every code fits
  /// one. O(nm).
  explicit PackedTable(const Table& table);

  RowId num_rows() const { return num_rows_; }
  ColId num_columns() const { return num_columns_; }

  /// Contiguous code array of column `c` (one entry per row).
  std::span<const ValueCode> column(ColId c) const;

  /// True when the byte plane exists: every code is below 255 or `*`.
  bool has_byte_codes() const { return has_byte_codes_; }

  /// Column `c` of the byte plane. Requires has_byte_codes().
  std::span<const ByteCode> byte_column(ColId c) const;

  /// Column `c` in `Code`: byte_column for ByteCode, else column.
  template <typename Code>
  std::span<const Code> codes(ColId c) const {
    if constexpr (std::is_same_v<Code, ByteCode>) {
      return byte_column(c);
    } else {
      return column(c);
    }
  }

 private:
  RowId num_rows_ = 0;
  ColId num_columns_ = 0;
  bool has_byte_codes_ = false;
  std::vector<ValueCode> codes_;  // column c at [c * n, (c + 1) * n)
  std::vector<ByteCode> bytes_;   // the byte plane, same layout, or empty
};

}  // namespace kanon

#endif  // KANON_DATA_PACKED_TABLE_H_
