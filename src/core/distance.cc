#include "core/distance.h"

#include <algorithm>

#include "util/logging.h"

namespace kanon {

ColId HammingDistance(std::span<const ValueCode> u,
                      std::span<const ValueCode> v) {
  KANON_CHECK_EQ(u.size(), v.size());
  ColId d = 0;
  for (size_t j = 0; j < u.size(); ++j) {
    d += static_cast<ColId>(u[j] != v[j]);
  }
  return d;
}

ColId RowDistance(const Table& table, RowId a, RowId b) {
  return HammingDistance(table.row(a), table.row(b));
}

ColId SetDiameter(const Table& table, std::span<const RowId> rows) {
  ColId diameter = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      diameter = std::max(diameter, RowDistance(table, rows[i], rows[j]));
    }
  }
  return diameter;
}

}  // namespace kanon
