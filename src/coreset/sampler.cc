#include "coreset/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "fault/fault.h"
#include "util/fingerprint.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace kanon {
namespace {

/// Hamming distance between row `r` and the cached codes of a center row.
uint32_t RowDistance(const Table& table, RowId r,
                     std::span<const ValueCode> center) {
  const std::span<const ValueCode> codes = table.row(r);
  uint32_t d = 0;
  for (size_t c = 0; c < codes.size(); ++c) d += (codes[c] != center[c]);
  return d;
}

/// Scales `real` to integer weights >= 1 summing to exactly `target`.
/// Deterministic: remainder units go to the largest fractional parts
/// (ties by index), deficit units are taken from the smallest fractional
/// parts among weights still > 1. Requires real.size() <= target and
/// every entry > 0.
std::vector<uint32_t> IntegerizeWeights(const std::vector<double>& real,
                                        size_t target) {
  const size_t s = real.size();
  KANON_CHECK_GT(s, 0u);
  KANON_CHECK_LE(s, target);
  double total = 0.0;
  for (const double w : real) {
    KANON_CHECK(w > 0.0);
    total += w;
  }
  const double scale = static_cast<double>(target) / total;
  std::vector<uint32_t> out(s);
  std::vector<std::pair<double, size_t>> frac(s);  // (fractional part, i)
  size_t sum = 0;
  for (size_t i = 0; i < s; ++i) {
    const double scaled = real[i] * scale;
    const double floored = std::floor(scaled);
    out[i] = static_cast<uint32_t>(std::max(1.0, floored));
    frac[i] = {scaled - floored, i};
    sum += out[i];
  }
  if (sum < target) {
    // Hand out the missing units to the largest fractional parts,
    // cycling deterministically if one pass is not enough.
    std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    size_t need = target - sum;
    while (need > 0) {
      for (size_t j = 0; j < s && need > 0; ++j, --need) {
        ++out[frac[j].second];
      }
    }
  } else if (sum > target) {
    // Claw back the excess from the smallest fractional parts, never
    // dropping a weight below 1. Feasible because s <= target.
    std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    });
    size_t excess = sum - target;
    while (excess > 0) {
      bool any = false;
      for (size_t j = 0; j < s && excess > 0; ++j) {
        uint32_t& w = out[frac[j].second];
        if (w > 1) {
          --w;
          --excess;
          any = true;
        }
      }
      KANON_CHECK(any) << "IntegerizeWeights cannot reach target";
    }
  }
  return out;
}

CoresetSample DrawUniform(size_t n, size_t s, Rng* rng) {
  CoresetSample sample;
  sample.rows = rng->SampleWithoutReplacement(
      static_cast<uint32_t>(n), static_cast<uint32_t>(s));
  std::sort(sample.rows.begin(), sample.rows.end());
  // Every sampled row stands for ~n/s tuples; the first n%s rows absorb
  // the remainder so the weights sum to exactly n.
  const uint32_t base = static_cast<uint32_t>(n / s);
  const uint32_t extra = static_cast<uint32_t>(n % s);
  sample.weights.assign(s, base);
  for (uint32_t i = 0; i < extra; ++i) ++sample.weights[i];
  return sample;
}

StatusOr<CoresetSample> DrawSensitivity(const Table& table, size_t s,
                                        const CoresetOptions& options,
                                        Rng* rng, RunContext* ctx) {
  const size_t n = table.num_rows();

  // Farthest-point seeding: distance-to-nearest-center for every row.
  std::vector<uint32_t> dist(n);
  const size_t centers = std::clamp<size_t>(options.seed_centers, 1, s);
  RowId center = static_cast<RowId>(rng->Uniform(static_cast<uint32_t>(n)));
  std::vector<ValueCode> center_codes(table.row(center).begin(),
                                      table.row(center).end());
  ParallelFor(
      0, n, 4096,
      [&](size_t b, size_t e) {
        for (size_t r = b; r < e; ++r) {
          dist[r] = RowDistance(table, static_cast<RowId>(r), center_codes);
        }
      },
      ctx);
  for (size_t j = 1; j < centers && !ctx->ShouldStop(); ++j) {
    // Next center: the row farthest from every chosen center (ties ->
    // lowest id). If everything is at distance 0 the table has collapsed
    // onto the centers and more seeding cannot help.
    size_t best = 0;
    for (size_t r = 1; r < n; ++r) {
      if (dist[r] > dist[best]) best = r;
    }
    if (dist[best] == 0) break;
    center = static_cast<RowId>(best);
    center_codes.assign(table.row(center).begin(), table.row(center).end());
    ParallelFor(
        0, n, 4096,
        [&](size_t b, size_t e) {
          for (size_t r = b; r < e; ++r) {
            dist[r] = std::min(
                dist[r],
                RowDistance(table, static_cast<RowId>(r), center_codes));
          }
        },
        ctx);
  }
  ctx->ChargeNodes(centers);
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());

  // Sensitivity score: distance to the nearest center plus an additive
  // uniform term so zero-distance rows keep nonzero mass. Draw s i.i.d.
  // rows proportional to the score via prefix sums, then weight each
  // distinct row by multiplicity/(s * p_row) tuples — the standard
  // unbiased sensitivity-sampling estimator — before integerizing.
  std::vector<double> prefix(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += static_cast<double>(dist[r]) + 1.0;
    prefix[r] = total;
  }
  std::vector<std::pair<RowId, uint32_t>> tally;  // (row, multiplicity)
  tally.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    const double u = rng->UniformDouble() * total;
    const size_t r = static_cast<size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), u) - prefix.begin());
    tally.emplace_back(static_cast<RowId>(std::min(r, n - 1)), 1);
  }
  std::sort(tally.begin(), tally.end());
  size_t distinct = 0;
  for (size_t i = 0; i < tally.size(); ++i) {
    if (distinct > 0 && tally[distinct - 1].first == tally[i].first) {
      tally[distinct - 1].second += 1;
    } else {
      tally[distinct++] = tally[i];
    }
  }
  tally.resize(distinct);

  CoresetSample sample;
  sample.rows.reserve(distinct);
  std::vector<double> real(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    const auto [row, count] = tally[i];
    sample.rows.push_back(row);
    const double score = static_cast<double>(dist[row]) + 1.0;
    real[i] = static_cast<double>(count) * total /
              (static_cast<double>(s) * score);
  }
  sample.weights = IntegerizeWeights(real, n);
  return sample;
}

}  // namespace

const char* CoresetStrategyName(CoresetStrategy strategy) {
  switch (strategy) {
    case CoresetStrategy::kUniform:
      return "uniform";
    case CoresetStrategy::kSensitivity:
      return "sensitivity";
  }
  return "unknown";
}

uint64_t CoresetOptions::Fingerprint() const {
  uint64_t fp = kFingerprintSeed;
  uint64_t rate_bits = 0;
  static_assert(sizeof(rate_bits) == sizeof(sample_rate));
  std::memcpy(&rate_bits, &sample_rate, sizeof(rate_bits));
  fp = FingerprintInt(fp, rate_bits);
  fp = FingerprintInt(fp, min_sample);
  fp = FingerprintInt(fp, max_sample);
  fp = FingerprintInt(fp, static_cast<uint64_t>(strategy));
  fp = FingerprintInt(fp, seed);
  fp = FingerprintInt(fp, seed_centers);
  return fp;
}

size_t ResolveSampleSize(size_t n, size_t k,
                         const CoresetOptions& options) {
  if (n == 0) return 0;
  const double rate =
      options.sample_rate > 0.0 ? options.sample_rate : kDefaultCoresetRate;
  size_t s = static_cast<size_t>(
      std::ceil(rate * static_cast<double>(n)));
  s = std::min(s, options.max_sample);
  // The floor wins over max_sample: a sample smaller than 3k gives the
  // inner solver no room to form groups.
  s = std::max(s, std::max(options.min_sample, 3 * k));
  return std::clamp<size_t>(s, 1, n);
}

StatusOr<CoresetSample> DrawCoresetSample(const Table& table, size_t k,
                                          const CoresetOptions& options,
                                          RunContext* ctx) {
  KANON_CHECK(ctx != nullptr);
  const size_t n = table.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("cannot sample an empty table");
  }
  if (KANON_FAULT_POINT("coreset.sample")) {
    ctx->MarkStopped(StopReason::kBudget);
    return Status::ResourceExhausted("injected coreset sampling failure");
  }
  if (ctx->ShouldStop()) return StopReasonToStatus(ctx->stop_reason());
  const size_t s = ResolveSampleSize(n, k, options);
  Rng rng(options.seed, /*stream=*/0x1c0ULL);
  StatusOr<CoresetSample> result =
      options.strategy == CoresetStrategy::kUniform
          ? DrawUniform(n, s, &rng)
          : DrawSensitivity(table, s, options, &rng, ctx);
  if (!result.ok()) return result;
  CoresetSample& sample = result.value();
  KANON_CHECK_EQ(sample.rows.size(), sample.weights.size());
  size_t total = 0;
  for (const uint32_t w : sample.weights) total += w;
  KANON_CHECK_EQ(total, n) << "coreset weights must sum to the row count";
  ctx->ChargeNodes(sample.rows.size());
  return result;
}

}  // namespace kanon
