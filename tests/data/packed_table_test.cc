#include "data/packed_table.h"

#include <vector>

#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace kanon {
namespace {

/// Random table with a sprinkling of pre-suppressed cells, so the
/// suppressed code path is exercised too.
Table MakeTable(RowId n, ColId m, uint64_t seed) {
  Rng rng(seed);
  Table t = UniformTable({.num_rows = n, .num_columns = m, .alphabet = 5},
                         &rng);
  for (RowId r = 0; r < n; ++r) {
    for (ColId c = 0; c < m; ++c) {
      if (rng.Uniform(10) == 0) t.set(r, c, kSuppressedCode);
    }
  }
  return t;
}

// Both planes mirror every cell: the byte plane holds each code's low
// byte, so `*` is 255.
TEST(PackedTableTest, MirrorsEveryCell) {
  const Table t = MakeTable(17, 6, 1);
  const PackedTable packed(t);
  ASSERT_EQ(packed.num_rows(), t.num_rows());
  ASSERT_EQ(packed.num_columns(), t.num_columns());
  ASSERT_TRUE(packed.has_byte_codes());
  for (ColId c = 0; c < t.num_columns(); ++c) {
    const std::span<const ValueCode> column = packed.column(c);
    const std::span<const ByteCode> bytes = packed.byte_column(c);
    ASSERT_EQ(column.size(), t.num_rows());
    ASSERT_EQ(bytes.size(), t.num_rows());
    for (RowId r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(column[r], t.at(r, c));
      EXPECT_EQ(bytes[r], t.at(r, c) == kSuppressedCode ? 255 : t.at(r, c));
    }
  }
}

TEST(PackedTableTest, EmptyTable) {
  const Table t(Schema({"a", "b"}));
  const PackedTable packed(t);
  EXPECT_EQ(packed.num_rows(), 0u);
  EXPECT_EQ(packed.num_columns(), 2u);
  EXPECT_TRUE(packed.column(0).empty());
  EXPECT_TRUE(packed.column(1).empty());
  EXPECT_TRUE(packed.has_byte_codes());
  EXPECT_TRUE(packed.byte_column(1).empty());
}

// One row of codes 0, 254 and `*` with `code` in the last cell: the
// byte plane exists exactly when `code` is below 255 or is `*`.
TEST(PackedTableTest, BytePlaneExactlyWhenEveryCodeFits) {
  for (const ValueCode code :
       {ValueCode{0}, ValueCode{254}, kSuppressedCode, ValueCode{255},
        ValueCode{256}, ValueCode{1} << 31, kSuppressedCode - 1}) {
    Table t(Schema({"a", "b", "c", "d"}));
    t.AppendRow(std::vector<ValueCode>{0, 254, kSuppressedCode, code});
    const PackedTable packed(t);
    EXPECT_EQ(packed.has_byte_codes(), code < 255 || code == kSuppressedCode)
        << "code " << code;
  }
}

// Code 254 and `*` stay distinct on the byte plane: rows that differ
// only there are at distance 1, as on the 4-byte codes.
TEST(PackedTableTest, CodeBelowStarStaysDistinct) {
  Table t(Schema({"a", "b"}));
  t.AppendRow(std::vector<ValueCode>{3, 254});
  t.AppendRow(std::vector<ValueCode>{3, kSuppressedCode});
  const PackedTable packed(t);
  ASSERT_TRUE(packed.has_byte_codes());
  std::vector<uint8_t> bytes(2, 0);
  std::vector<ColId> wide(2, 0);
  for (ColId c = 0; c < 2; ++c) {
    const std::span<const ByteCode> byte_column = packed.byte_column(c);
    const std::span<const ValueCode> column = packed.column(c);
    AddMismatches(byte_column.data(), byte_column[0], 2, bytes.data());
    AddMismatches(column.data(), column[0], 2, wide.data());
  }
  EXPECT_EQ(bytes, (std::vector<uint8_t>{0, 1}));
  EXPECT_EQ(wide, (std::vector<ColId>{0, 1}));
}

}  // namespace
}  // namespace kanon
