#include "data/packed_table.h"

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

TEST(PackedTableTest, MirrorsEveryCell) {
  const Table t = MakeTable(17, 6, 1);
  const PackedTable packed(t);
  ASSERT_EQ(packed.num_rows(), t.num_rows());
  ASSERT_EQ(packed.num_columns(), t.num_columns());
  for (ColId c = 0; c < t.num_columns(); ++c) {
    const std::span<const ValueCode> column = packed.column(c);
    ASSERT_EQ(column.size(), t.num_rows());
    for (RowId r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(column[r], t.at(r, c));
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
}

}  // namespace
}  // namespace kanon
