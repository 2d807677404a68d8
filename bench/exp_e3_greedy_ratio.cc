// E3 — Theorem 4.1 reproduction.
//
// Claim: the greedy-cover algorithm over all [k, 2k-1]-subsets is an
// O(k log k)-approximation (constant <= 4, per the abstract) to optimal
// k-anonymity. We measure cost(greedy_cover) / OPT against both the
// paper's stated bound 3k(1 + ln k) and the corrected sound bound
// 4k(1 + ln 2k) (see DESIGN.md "Lemma 4.1 constants"), across uniform
// and clustered workloads with the exact DP as the OPT oracle.

#include <cmath>
#include <string>

#include "algo/exact_dp.h"
#include "algo/greedy_cover.h"
#include "util/report.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"

namespace kanon {
namespace {

Table MakeWorkload(const std::string& kind, uint32_t n, uint32_t m,
                   uint32_t alphabet, Rng* rng) {
  if (kind == "clustered") {
    ClusteredTableOptions opt;
    opt.num_rows = n;
    opt.num_columns = m;
    opt.alphabet = alphabet;
    opt.num_clusters = std::max<uint32_t>(2, n / 4);
    opt.noise_flips = 1;
    return ClusteredTable(opt, rng);
  }
  UniformTableOptions opt;
  opt.num_rows = n;
  opt.num_columns = m;
  opt.alphabet = alphabet;
  return UniformTable(opt, rng);
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e3_greedy_ratio",
                       {"trials", "n", "m"})) {
    return 1;
  }
  const uint32_t trials = static_cast<uint32_t>(cl.GetInt("trials", 8));
  const uint32_t n = static_cast<uint32_t>(cl.GetInt("n", 12));
  const uint32_t m = static_cast<uint32_t>(cl.GetInt("m", 6));

  bench::PrintBanner(
      "E3 (Theorem 4.1): greedy-cover approximation ratio",
      "cost/OPT <= 3k(1+ln k) as stated; <= 4k(1+ln 2k) corrected; "
      "runtime O(n^{2k})",
      "n = " + std::to_string(n) + ", m = " + std::to_string(m) +
          ", k in {2, 3}, uniform + clustered workloads, " +
          std::to_string(trials) + " seeds each; OPT from exact DP");

  bench::ReportTable table({"workload", "k", "mean ratio", "max ratio",
                            "stated bound", "corrected bound",
                            "zero-OPT hits", "mean time (ms)"});
  bool within = true;

  for (const std::string kind : {"uniform", "clustered"}) {
    for (const size_t k : {2u, 3u}) {
      Accumulator ratios;
      Accumulator times;
      size_t zero_opt = 0;
      for (uint32_t seed = 1; seed <= trials; ++seed) {
        Rng rng(seed * 13 + k);
        const Table t = MakeWorkload(kind, n, m, 4, &rng);
        ExactDpAnonymizer exact;
        GreedyCoverAnonymizer greedy;
        const size_t opt = exact.Run(t, k).cost;
        const auto result = greedy.Run(t, k);
        times.Add(result.seconds * 1e3);
        if (opt == 0) {
          ++zero_opt;
          if (result.cost != 0) within = false;
          continue;
        }
        ratios.Add(static_cast<double>(result.cost) /
                   static_cast<double>(opt));
      }
      const double stated =
          3.0 * static_cast<double>(k) *
          (1.0 + std::log(static_cast<double>(k)));
      const double corrected =
          4.0 * static_cast<double>(k) *
          (1.0 + std::log(2.0 * static_cast<double>(k)));
      if (ratios.count() > 0 && ratios.max() > corrected) within = false;
      table.AddRow(
          {kind, bench::ReportTable::Int(static_cast<long long>(k)),
           ratios.count() ? bench::ReportTable::Num(ratios.mean()) : "-",
           ratios.count() ? bench::ReportTable::Num(ratios.max()) : "-",
           bench::ReportTable::Num(stated, 2),
           bench::ReportTable::Num(corrected, 2),
           bench::ReportTable::Int(static_cast<long long>(zero_opt)),
           bench::ReportTable::Num(times.mean(), 2)});
    }
  }

  table.Print();
  bench::PrintVerdict(
      within,
      "measured ratios sit far below the theoretical bounds (paper's "
      "qualitative claim: practical on small k)");
  return within ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
