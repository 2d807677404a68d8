#ifndef KANON_CORESET_SAMPLER_H_
#define KANON_CORESET_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "util/run_context.h"
#include "util/status.h"

/// \file
/// Coreset sampling layer: draws a weighted representative subsample of
/// a table so an O(n^2) solver can run on s << n rows while the weighted
/// suppression cost approximates the full table's (Motwani & Nabar's
/// clustering view of anonymization; minicore's coreset.h is the shape
/// exemplar). Two strategies:
///
///   * **uniform** — s rows without replacement, each standing for ~n/s
///     tuples;
///   * **sensitivity** — farthest-point seed centers (ball_cover-style
///     seeding) give every row a sensitivity score proportional to its
///     distance from the nearest center plus a uniform term; rows are
///     drawn with probability proportional to the score and weighted by
///     the inverse of their inclusion probability, so outliers that
///     dominate suppression cost are kept while dense regions collapse
///     onto few heavy representatives.
///
/// Both are deterministic from `CoresetOptions::seed`, and the
/// sensitivity draw polls the RunContext for cancellation. Integer
/// weights always sum to exactly the full row count, so a weighted group
/// cost is directly comparable to an unweighted one.

namespace kanon {

/// How sample rows are chosen.
enum class CoresetStrategy {
  kUniform = 0,
  kSensitivity = 1,
};

const char* CoresetStrategyName(CoresetStrategy strategy);

/// Knobs for DrawCoresetSample; all have million-row-friendly defaults.
struct CoresetOptions {
  /// Target sample size as a fraction of n; 0 means the default rate.
  double sample_rate = 0.0;
  /// Resolved sample size is clamped to [min_sample, max_sample] (and
  /// never below 3k or above n).
  size_t min_sample = 32;
  size_t max_sample = 2048;
  CoresetStrategy strategy = CoresetStrategy::kSensitivity;
  /// Seed for the sampler's private PCG32 stream.
  uint64_t seed = 0x5eedc0de;
  /// Number of farthest-point seed centers for sensitivity scoring.
  size_t seed_centers = 16;

  /// Stable fingerprint over every knob; keyed into the service result
  /// cache so runs with different knobs can never collide.
  uint64_t Fingerprint() const;
};

/// Default sample_rate when CoresetOptions::sample_rate == 0.
inline constexpr double kDefaultCoresetRate = 0.125;

/// A weighted subsample: `rows` are distinct ids of the source table in
/// ascending order; `weights[i]` >= 1 is the number of source tuples row
/// `rows[i]` stands for, and the weights sum to exactly n.
struct CoresetSample {
  std::vector<RowId> rows;
  std::vector<uint32_t> weights;
};

/// Sample size DrawCoresetSample would use for an n-row table: s in
/// [max(min_sample, 3k), min(max_sample, ...)] clamped to [1, n]. When
/// this returns n the caller should solve directly — sampling would not
/// shrink the instance.
size_t ResolveSampleSize(size_t n, size_t k, const CoresetOptions& options);

/// Draws the weighted sample. Typed failures: kCancelled/
/// kDeadlineExceeded when `ctx` stops, kInvalidArgument on an empty
/// table. Fault site `coreset.sample` fires a typed budget decline for
/// chaos testing.
StatusOr<CoresetSample> DrawCoresetSample(const Table& table, size_t k,
                                          const CoresetOptions& options,
                                          RunContext* ctx);

}  // namespace kanon

#endif  // KANON_CORESET_SAMPLER_H_
