// Scenario: a statistics office must choose an anonymization algorithm
// before releasing census microdata. Runs every registered algorithm on
// the same synthetic census extract and prints a side-by-side comparison
// of suppression cost, information-loss metrics and runtime — the
// decision table a practitioner would actually want.
//
// Run:  ./example_census_comparison [--rows=80] [--k=4] [--seed=3]

#include <iomanip>
#include <iostream>

#include "algo/registry.h"
#include "core/bounds.h"
#include "core/distance_oracle.h"
#include "core/metrics.h"
#include "data/generators/census.h"
#include "util/cli.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace kanon;
  const CommandLine cl = CommandLine::Parse(argc, argv);
  const uint32_t rows = static_cast<uint32_t>(cl.GetInt("rows", 80));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 4));
  Rng rng(static_cast<uint64_t>(cl.GetInt("seed", 3)));

  const Table census = CensusTable({.num_rows = rows}, &rng);
  std::cout << "Synthetic census extract, first rows:\n\n"
            << census.ToString(8) << "\n";

  const auto oracle = DistanceOracle::Create(census, {}, nullptr);
  const size_t lower_bound = KnnLowerBound(census, **oracle, k);
  std::cout << "certified lower bound on OPT (k-NN argument): "
            << lower_bound << " stars\n\n";

  std::cout << std::left << std::setw(28) << "algorithm" << std::right
            << std::setw(8) << "stars" << std::setw(9) << "star%"
            << std::setw(10) << "discern" << std::setw(9) << "groups"
            << std::setw(10) << "time ms" << "\n";
  std::cout << std::string(74, '-') << "\n";

  for (const std::string name :
       {"ball_cover", "ball_cover+local_search", "mondrian",
        "cluster_greedy", "random_partition", "suppress_all"}) {
    auto algo = MakeAnonymizer(name);
    if (algo == nullptr) continue;
    const AnonymizationResult result = algo->Run(census, k);
    const AnonymizationMetrics metrics =
        ComputeMetrics(census, result.partition, k);
    std::cout << std::left << std::setw(28) << name << std::right
              << std::setw(8) << result.cost << std::setw(8)
              << std::fixed << std::setprecision(1)
              << metrics.star_fraction * 100.0 << "%" << std::setw(10)
              << metrics.discernibility << std::setw(9)
              << result.partition.num_groups() << std::setw(10)
              << std::setprecision(2) << result.seconds * 1e3 << "\n";
  }

  std::cout << "\n(lower stars = more data utility at the same privacy "
            << "level k = " << k << ")\n";
  return 0;
}
