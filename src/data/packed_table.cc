#include "data/packed_table.h"

#include "util/logging.h"

namespace kanon {

PackedTable::PackedTable(const Table& table)
    : num_rows_(table.num_rows()), cols_(table.num_columns()) {
  const ColId m = table.num_columns();
  for (ColId c = 0; c < m; ++c) cols_[c].reserve(num_rows_);
  for (RowId r = 0; r < num_rows_; ++r) {
    const std::span<const ValueCode> row = table.row(r);
    for (ColId c = 0; c < m; ++c) cols_[c].push_back(row[c]);
  }
}

std::span<const ValueCode> PackedTable::column(ColId c) const {
  KANON_CHECK_LT(c, cols_.size());
  return cols_[c];
}

}  // namespace kanon
