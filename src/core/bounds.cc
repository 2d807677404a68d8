#include "core/bounds.h"

#include <algorithm>

#include "core/distance.h"
#include "util/logging.h"

namespace kanon {

size_t KnnLowerBound(const Table& table, const DistanceOracle& oracle,
                     size_t k) {
  const RowId n = table.num_rows();
  if (n == 0 || k <= 1) return 0;
  KANON_CHECK_LE(k, n);
  size_t bound = 0;
  for (RowId r = 0; r < n; ++r) {
    bound += oracle.KthNearestDistance(r, static_cast<RowId>(k - 1));
  }
  return bound;
}

size_t HalfDiameterVolumeBound(const Table& table, const Partition& p) {
  size_t twice = 0;
  for (const Group& g : p.groups) {
    twice += g.size() * static_cast<size_t>(SetDiameter(table, g));
  }
  return twice / 2;
}

size_t DiameterVolumeUpperBound(const Table& table, const Partition& p) {
  size_t bound = 0;
  for (const Group& g : p.groups) {
    if (g.size() < 2) continue;
    bound += g.size() * (g.size() - 1) *
             static_cast<size_t>(SetDiameter(table, g));
  }
  return bound;
}

size_t AsPrintedDiameterUpperBound(const Table& table, const Partition& p) {
  size_t bound = 0;
  for (const Group& g : p.groups) {
    bound += g.size() * static_cast<size_t>(SetDiameter(table, g));
  }
  return bound;
}

}  // namespace kanon
