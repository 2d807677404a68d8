#include "data/packed_table.h"

#include <algorithm>

#include "util/logging.h"

namespace kanon {

PackedTable::PackedTable(const Table& table)
    : num_rows_(table.num_rows()),
      num_columns_(table.num_columns()),
      codes_(static_cast<size_t>(num_rows_) * num_columns_) {
  const size_t n = num_rows_;
  for (RowId r = 0; r < num_rows_; ++r) {
    const std::span<const ValueCode> row = table.row(r);
    for (ColId c = 0; c < num_columns_; ++c) codes_[c * n + r] = row[c];
  }
  // code + 1 wraps `*` to 0 and takes 0..254 to 1..255, so a code fits
  // the byte plane exactly when code + 1 is below 256; its byte is then
  // its low byte.
  has_byte_codes_ = std::all_of(codes_.begin(), codes_.end(),
                                [](ValueCode code) {
                                  return static_cast<ValueCode>(code + 1) <
                                         256;
                                });
  if (has_byte_codes_) {
    bytes_.resize(codes_.size());
    std::transform(codes_.begin(), codes_.end(), bytes_.begin(),
                   [](ValueCode code) { return static_cast<ByteCode>(code); });
  }
}

std::span<const ValueCode> PackedTable::column(ColId c) const {
  KANON_CHECK_LT(c, num_columns_);
  return {codes_.data() + static_cast<size_t>(c) * num_rows_, num_rows_};
}

std::span<const ByteCode> PackedTable::byte_column(ColId c) const {
  KANON_CHECK(has_byte_codes_);
  KANON_CHECK_LT(c, num_columns_);
  return {bytes_.data() + static_cast<size_t>(c) * num_rows_, num_rows_};
}

}  // namespace kanon
