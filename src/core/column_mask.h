#ifndef KANON_CORE_COLUMN_MASK_H_
#define KANON_CORE_COLUMN_MASK_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "data/value.h"

/// \file
/// Column bit masks: a set of a table's m columns as ⌈m/64⌉ 64-bit
/// words, column c at bit c % 64 of word c / 64, with the bits past m
/// clear. ANON(S) = weight(S) * |disagreeing columns of S| depends on a
/// group only through that column set, so the solvers' what-if probes
/// (branch_bound's nodes, cluster_greedy's picks, local search's MOVE
/// and SWAP) are a few AND/OR/popcount word operations on such masks.

namespace kanon {

/// Words in a mask over `m` columns.
inline size_t MaskWords(ColId m) { return (static_cast<size_t>(m) + 63) / 64; }

/// Number of columns in the mask `words[0..n)`.
inline size_t MaskCount(const uint64_t* words, size_t n) {
  size_t count = 0;
  for (size_t w = 0; w < n; ++w) count += std::popcount(words[w]);
  return count;
}

/// ORs into `mask` the columns where rows `a` and `b` (equal lengths)
/// take different codes.
inline void OrDiffMask(std::span<const ValueCode> a,
                       std::span<const ValueCode> b, uint64_t* mask) {
  for (size_t c = 0; c < a.size(); ++c) {
    mask[c / 64] |= static_cast<uint64_t>(a[c] != b[c]) << (c % 64);
  }
}

}  // namespace kanon

#endif  // KANON_CORE_COLUMN_MASK_H_
