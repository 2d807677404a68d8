#include "core/group_stats.h"

#include "util/logging.h"

namespace kanon {

GroupStats::GroupStats(const Table& table)
    : table_(&table), counts_(table.num_columns()) {}

GroupStats::GroupStats(const Table& table, std::span<const RowId> rows)
    : GroupStats(table) {
  for (const RowId r : rows) Add(r);
}

uint32_t GroupStats::CountOf(ColId c, ValueCode code) const {
  for (const auto& [existing, count] : counts_[c]) {
    if (existing == code) return count;
  }
  return 0;
}

void GroupStats::Add(RowId row) {
  const std::span<const ValueCode> codes = table_->row(row);
  for (ColId c = 0; c < counts_.size(); ++c) {
    std::vector<std::pair<ValueCode, uint32_t>>& col = counts_[c];
    bool found = false;
    for (auto& [code, count] : col) {
      if (code == codes[c]) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) {
      col.emplace_back(codes[c], 1);
      if (col.size() == 2) ++disagreeing_;
    }
  }
  ++size_;
  weight_ += table_->row_weight(row);
}

void GroupStats::Remove(RowId row) {
  KANON_CHECK_GT(size_, 0u);
  const std::span<const ValueCode> codes = table_->row(row);
  for (ColId c = 0; c < counts_.size(); ++c) {
    std::vector<std::pair<ValueCode, uint32_t>>& col = counts_[c];
    size_t i = 0;
    for (; i < col.size(); ++i) {
      if (col[i].first == codes[c]) break;
    }
    KANON_CHECK_LT(i, col.size()) << "Remove of a non-member row";
    if (--col[i].second == 0) {
      col[i] = col.back();
      col.pop_back();
      if (col.size() == 1) --disagreeing_;
    }
  }
  --size_;
  weight_ -= table_->row_weight(row);
}

void GroupStats::Clear() {
  for (auto& col : counts_) col.clear();
  size_ = 0;
  weight_ = 0;
  disagreeing_ = 0;
}

size_t GroupStats::CostWith(RowId extra) const {
  const std::span<const ValueCode> codes = table_->row(extra);
  ColId d = 0;
  for (ColId c = 0; c < counts_.size(); ++c) {
    const size_t distinct =
        counts_[c].size() + (CountOf(c, codes[c]) == 0 ? 1 : 0);
    d += static_cast<ColId>(distinct > 1);
  }
  return (weight_ + table_->row_weight(extra)) * static_cast<size_t>(d);
}

size_t GroupStats::CostWithout(RowId member) const {
  KANON_CHECK_GT(size_, 0u);
  const std::span<const ValueCode> codes = table_->row(member);
  ColId d = 0;
  for (ColId c = 0; c < counts_.size(); ++c) {
    const uint32_t count = CountOf(c, codes[c]);
    KANON_CHECK_GT(count, 0u) << "CostWithout of a non-member row";
    const size_t distinct = counts_[c].size() - (count == 1 ? 1 : 0);
    d += static_cast<ColId>(distinct > 1);
  }
  return (weight_ - table_->row_weight(member)) * static_cast<size_t>(d);
}

size_t GroupStats::CostReplacing(RowId out, RowId in) const {
  KANON_CHECK_GT(size_, 0u);
  const std::span<const ValueCode> out_codes = table_->row(out);
  const std::span<const ValueCode> in_codes = table_->row(in);
  ColId d = 0;
  for (ColId c = 0; c < counts_.size(); ++c) {
    size_t distinct = counts_[c].size();
    if (out_codes[c] != in_codes[c]) {
      const uint32_t out_count = CountOf(c, out_codes[c]);
      KANON_CHECK_GT(out_count, 0u) << "CostReplacing of a non-member row";
      distinct -= (out_count == 1 ? 1 : 0);
      distinct += (CountOf(c, in_codes[c]) == 0 ? 1 : 0);
    }
    d += static_cast<ColId>(distinct > 1);
  }
  return (weight_ - table_->row_weight(out) + table_->row_weight(in)) *
         static_cast<size_t>(d);
}

std::vector<ValueCode> WeightedModeCentroid(const Table& table,
                                            std::span<const RowId> rows) {
  const ColId m = table.num_columns();
  std::vector<ValueCode> centroid(m);
  std::vector<std::pair<ValueCode, uint64_t>> counts;
  for (ColId c = 0; c < m; ++c) {
    counts.clear();
    for (const RowId r : rows) {
      const ValueCode code = table.at(r, c);
      bool found = false;
      for (auto& [existing, count] : counts) {
        if (existing == code) {
          count += table.row_weight(r);
          found = true;
          break;
        }
      }
      if (!found) counts.emplace_back(code, table.row_weight(r));
    }
    ValueCode best_code = 0;
    uint64_t best_count = 0;
    for (const auto& [code, count] : counts) {
      if (count > best_count || (count == best_count && code < best_code)) {
        best_code = code;
        best_count = count;
      }
    }
    centroid[c] = best_code;
  }
  return centroid;
}

}  // namespace kanon
