#include "algo/ball_cover.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "algo/reduce.h"
#include "core/cost.h"
#include "core/distance_oracle.h"
#include "setcover/set_cover.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// Lazily-materialized ball family. All balls around one center are
/// prefixes of that center's distance-sorted row order, so the family
/// stores one sorted order per center (O(n^2) memory total) plus a
/// (center, prefix_len, weight) triple per set.
class BallFamily : public SetFamily {
 public:
  BallFamily(const Table& table, const DistanceOracle& dm, size_t k,
             BallFamilyMode mode, BallWeightMode weight_mode,
             RunContext* ctx)
      : n_(table.num_rows()) {
    const ColId m = table.num_columns();
    // Resolve kAuto per the paper's advice: the radius family has
    // (m+1)*n sets, the pair family n^2; pick the smaller.
    mode_ = mode;
    if (mode_ == BallFamilyMode::kAuto) {
      mode_ = (static_cast<size_t>(m) + 1 <= n_) ? BallFamilyMode::kRadius
                                                 : BallFamilyMode::kPairwise;
    }

    order_.resize(n_);
    dist_.resize(n_);
    prefix_diam_.resize(n_);
    // Per-center state is disjoint, so centers parallelize cleanly; the
    // O(n^2)-per-center prefix-diameter scan dominates Phase 1.
    ParallelFor(0, n_, /*min_chunk=*/16, [&](size_t lo, size_t hi) {
      for (RowId c = static_cast<RowId>(lo); c < hi; ++c) {
        // Sort rows by distance from c (stable on row id for
        // determinism).
        std::vector<RowId>& order = order_[c];
        order.resize(n_);
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(), [&](RowId a, RowId b) {
          const ColId da = dm.at(c, a), db = dm.at(c, b);
          if (da != db) return da < db;
          return a < b;
        });
        std::vector<ColId>& dist = dist_[c];
        dist.resize(n_);
        for (RowId i = 0; i < n_; ++i) dist[i] = dm.at(c, order[i]);
        // prefix_diam_[c][t] = diameter of the first t+1 rows of
        // `order`.
        std::vector<ColId>& pd = prefix_diam_[c];
        pd.resize(n_);
        ColId diam = 0;
        for (RowId t = 0; t < n_; ++t) {
          for (RowId j = 0; j < t; ++j) {
            diam = std::max(diam, dm.at(order[j], order[t]));
          }
          pd[t] = diam;
        }
      }
    });

    if (ctx->ShouldStop()) return;  // partial per-center state discarded

    auto prefix_for_radius = [&](RowId c, ColId radius) {
      // Number of rows within `radius` of c.
      return static_cast<size_t>(
          std::upper_bound(dist_[c].begin(), dist_[c].end(), radius) -
          dist_[c].begin());
    };
    auto weight_for = [&](RowId c, size_t len, ColId radius) {
      return weight_mode == BallWeightMode::kExactDiameter
                 ? static_cast<double>(prefix_diam_[c][len - 1])
                 : 2.0 * static_cast<double>(radius);
    };

    if (mode_ == BallFamilyMode::kRadius) {
      for (RowId c = 0; c < n_; ++c) {
        if (ctx->ShouldStop()) return;
        for (ColId i = 0; i <= m; ++i) {
          const size_t len = prefix_for_radius(c, i);
          if (len < k) continue;
          sets_.push_back({c, len, weight_for(c, len, i)});
        }
      }
    } else {
      for (RowId c = 0; c < n_; ++c) {
        if (ctx->ShouldStop()) return;
        for (RowId peer = 0; peer < n_; ++peer) {
          const ColId radius = dm.at(c, peer);
          const size_t len = prefix_for_radius(c, radius);
          if (len < k) continue;
          sets_.push_back({c, len, weight_for(c, len, radius)});
        }
      }
    }
  }

  size_t NumElements() const override { return n_; }
  size_t NumSets() const override { return sets_.size(); }

  std::vector<uint32_t> Members(size_t s) const override {
    KANON_CHECK_LT(s, sets_.size());
    const BallSet& b = sets_[s];
    const std::vector<RowId>& order = order_[b.center];
    return std::vector<uint32_t>(order.begin(),
                                 order.begin() + static_cast<ptrdiff_t>(b.len));
  }

  double Weight(size_t s) const override {
    KANON_CHECK_LT(s, sets_.size());
    return sets_[s].weight;
  }

  BallFamilyMode resolved_mode() const { return mode_; }

 private:
  struct BallSet {
    RowId center;
    size_t len;
    double weight;
  };

  size_t n_;
  BallFamilyMode mode_;
  std::vector<std::vector<RowId>> order_;
  std::vector<std::vector<ColId>> dist_;
  std::vector<std::vector<ColId>> prefix_diam_;
  std::vector<BallSet> sets_;
};

}  // namespace

BallCoverAnonymizer::BallCoverAnonymizer(BallCoverOptions options)
    : options_(options) {}

std::string BallCoverAnonymizer::name() const {
  switch (options_.family_mode) {
    case BallFamilyMode::kRadius:
      return "ball_cover_radius";
    case BallFamilyMode::kPairwise:
      return "ball_cover_pairwise";
    case BallFamilyMode::kAuto:
      return "ball_cover";
  }
  return "ball_cover";
}

AnonymizationResult BallCoverAnonymizer::Run(const Table& table, size_t k,
                                             RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);

  WallTimer timer;
  const StatusOr<std::shared_ptr<const DistanceOracle>> oracle =
      SharedDistanceOracle(table, ctx);
  if (!oracle.ok()) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "declined: " + oracle.status().message());
  }
  const DistanceOracle& dm = **oracle;
  const BallFamily family(table, dm, k, options_.family_mode,
                          options_.weight_mode, ctx);
  if (ctx->ShouldStop()) {
    return StoppedResult(*ctx, timer.Seconds(),
                         "stopped while building ball family");
  }

  // Phase 1: greedy cover over the ball family. Coverage is guaranteed:
  // the radius-m ball around any center contains all n >= k rows.
  const SetCoverResult cover_result = GreedySetCover(family, ctx);
  if (!cover_result.complete) {
    KANON_CHECK(ctx->stop_reason() != StopReason::kNone)
        << "ball family always covers the universe";
    return StoppedResult(*ctx, timer.Seconds(),
                         "stopped during greedy cover");
  }

  Partition cover;
  cover.groups.reserve(cover_result.chosen.size());
  for (const size_t s : cover_result.chosen) {
    const std::vector<uint32_t> members = family.Members(s);
    cover.groups.emplace_back(members.begin(), members.end());
  }

  // Phase 2: cover -> partition, then the wlog split to [k, 2k-1]
  // (splitting never increases the suppression cost).
  AnonymizationResult result;
  result.partition = SplitLargeGroups(
      ReduceCoverToPartition(table, cover, k), k);

  FinalizeResult(table, &result);
  result.seconds = timer.Seconds();
  std::ostringstream notes;
  notes << "family=" << family.NumSets()
        << " mode="
        << (family.resolved_mode() == BallFamilyMode::kRadius ? "radius"
                                                              : "pairwise")
        << " cover_sets=" << cover_result.chosen.size()
        << " cover_weight=" << cover_result.total_weight;
  result.notes = notes.str();
  return result;
}

}  // namespace kanon
