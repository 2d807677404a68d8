// E4 — Theorem 4.2 reproduction (+ ablations).
//
// Claim: the strongly polynomial ball-cover algorithm is a
// 6k(1 + ln m)-approximation. We measure its ratio against exact OPT on
// small instances and against the certified kNN lower bound on larger
// ones, and run the two design ablations from DESIGN.md:
//   * family: radius balls S_{c,i} vs pairwise balls S_{c,c'},
//   * weight: exact ball diameter vs the Lemma 4.2 bound 2i.

#include <cmath>
#include <iostream>
#include <memory>
#include <string>

#include "algo/ball_cover.h"
#include "algo/exact_dp.h"
#include "util/report.h"
#include "core/bounds.h"
#include "core/distance_oracle.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"

namespace kanon {
namespace {

struct Config {
  std::string label;
  BallFamilyMode family;
  BallWeightMode weight;
};

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  const uint32_t trials = static_cast<uint32_t>(cl.GetInt("trials", 8));
  const uint32_t n_small = static_cast<uint32_t>(cl.GetInt("n_small", 12));
  const uint32_t n_large = static_cast<uint32_t>(cl.GetInt("n_large", 120));
  const uint32_t m = static_cast<uint32_t>(cl.GetInt("m", 6));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 3));

  bench::PrintBanner(
      "E4 (Theorem 4.2): ball-cover approximation ratio + ablations",
      "cost/OPT <= 6k(1+ln m); strongly polynomial (no n^{2k} blowup)",
      "small n vs exact OPT, large n vs certified kNN lower bound; "
      "ablations over ball family and weight mode");

  const std::vector<Config> configs = {
      {"radius/exact-diam", BallFamilyMode::kRadius,
       BallWeightMode::kExactDiameter},
      {"radius/2i-bound", BallFamilyMode::kRadius,
       BallWeightMode::kTwiceRadius},
      {"pairwise/exact-diam", BallFamilyMode::kPairwise,
       BallWeightMode::kExactDiameter},
      {"pairwise/2i-bound", BallFamilyMode::kPairwise,
       BallWeightMode::kTwiceRadius},
  };
  const double bound = 6.0 * static_cast<double>(k) *
                       (1.0 + std::log(static_cast<double>(m)));

  // Part 1: against exact optimum (small n, clustered workload so OPT is
  // nontrivial but nonzero).
  bench::ReportTable small_table({"config", "mean ratio vs OPT",
                                  "max ratio", "bound 6k(1+ln m)",
                                  "mean time (ms)"});
  bool within = true;
  for (const Config& config : configs) {
    Accumulator ratios, times;
    for (uint32_t seed = 1; seed <= trials; ++seed) {
      Rng rng(seed * 7);
      ClusteredTableOptions opt;
      opt.num_rows = n_small;
      opt.num_columns = m;
      opt.alphabet = 5;
      opt.num_clusters = n_small / 4;
      opt.noise_flips = 1;
      const Table t = ClusteredTable(opt, &rng);
      ExactDpAnonymizer exact;
      BallCoverOptions ball_opt;
      ball_opt.family_mode = config.family;
      ball_opt.weight_mode = config.weight;
      BallCoverAnonymizer ball(ball_opt);
      const size_t opt_cost = exact.Run(t, k).cost;
      const auto result = ball.Run(t, k);
      times.Add(result.seconds * 1e3);
      if (opt_cost == 0) {
        if (result.cost != 0) within = false;
        continue;
      }
      const double ratio = static_cast<double>(result.cost) /
                           static_cast<double>(opt_cost);
      ratios.Add(ratio);
      if (ratio > bound) within = false;
    }
    small_table.AddRow({config.label,
                        ratios.count() ? bench::ReportTable::Num(ratios.mean())
                                       : "-",
                        ratios.count() ? bench::ReportTable::Num(ratios.max())
                                       : "-",
                        bench::ReportTable::Num(bound, 2),
                        bench::ReportTable::Num(times.mean(), 2)});
  }
  small_table.Print();

  // Part 2: against the certified kNN lower bound at a size the
  // exponential algorithms cannot touch.
  std::cout << "\nlarge-instance audit (n = " << n_large
            << ", ratio vs certified lower bound — an overestimate of "
               "the true ratio):\n";
  bench::ReportTable large_table(
      {"config", "mean cost", "mean LB", "cost/LB", "time (ms)"});
  for (const Config& config : configs) {
    Accumulator costs, lbs, ratios, times;
    for (uint32_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 101);
      ClusteredTableOptions opt;
      opt.num_rows = n_large;
      opt.num_columns = m;
      opt.alphabet = 5;
      opt.num_clusters = n_large / 6;
      opt.noise_flips = 1;
      const Table t = ClusteredTable(opt, &rng);
      const auto oracle = DistanceOracle::Create(t, {}, nullptr);
      const size_t lb = KnnLowerBound(t, **oracle, k);
      BallCoverOptions ball_opt;
      ball_opt.family_mode = config.family;
      ball_opt.weight_mode = config.weight;
      BallCoverAnonymizer ball(ball_opt);
      const auto result = ball.Run(t, k);
      costs.Add(static_cast<double>(result.cost));
      lbs.Add(static_cast<double>(lb));
      if (lb > 0) {
        ratios.Add(static_cast<double>(result.cost) /
                   static_cast<double>(lb));
      }
      times.Add(result.seconds * 1e3);
    }
    large_table.AddRow(
        {config.label, bench::ReportTable::Num(costs.mean(), 1),
         bench::ReportTable::Num(lbs.mean(), 1),
         ratios.count() ? bench::ReportTable::Num(ratios.mean()) : "-",
         bench::ReportTable::Num(times.mean(), 2)});
  }
  large_table.Print();

  bench::PrintVerdict(within,
                      "ball-cover ratios well inside 6k(1+ln m); family / "
                      "weight ablations agree within noise");
  return within ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
