// E2 — Theorem 3.2 reproduction.
//
// Claim: k-dimensional PERFECT MATCHING reduces to k-ANONYMITY ON
// ATTRIBUTES over a binary alphabet: the incidence instance of a simple
// k-hypergraph admits a k-anonymization suppressing exactly m - n/k
// attributes iff H has a perfect matching (kept attributes = matching).
// We also report the greedy attribute heuristic's gap on the same
// instances, since the hardness explains why it cannot be exact.

#include <string>

#include "algo/attribute_exact.h"
#include "algo/attribute_greedy.h"
#include "util/report.h"
#include "hypergraph/generators.h"
#include "hypergraph/matching.h"
#include "reductions/matching_to_attribute.h"
#include "util/cli.h"
#include "util/random.h"

namespace kanon {
namespace {

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e2_hardness_attribute", {"trials"})) return 1;
  const uint32_t trials = static_cast<uint32_t>(cl.GetInt("trials", 5));

  bench::PrintBanner(
      "E2 (Theorem 3.2): PERFECT MATCHING -> k-ATTRIBUTE-ANONYMITY",
      "min #suppressed attributes == m - n/k iff H has a PM; binary "
      "alphabet",
      "planted-PM (YES) and matching-free (NO) hypergraphs, k in {3, 4}; "
      "exact lattice search as the optimality oracle");

  bench::ReportTable table({"seed", "k", "instance", "n", "m", "threshold",
                            "exact", "greedy", "claim"});
  bool all_ok = true;

  for (const uint32_t k : {3u, 4u}) {
    const uint32_t n = (k == 3) ? 9 : 8;
    for (uint32_t seed = 1; seed <= trials; ++seed) {
      Rng rng(seed * 17 + k);
      const Hypergraph yes = PlantedMatchingHypergraph(
          {.num_vertices = n, .k = k, .extra_edges = 4}, &rng);
      const Table v = BuildAttributeInstance(yes);
      ExactAttributeAnonymizer exact;
      GreedyAttributeAnonymizer greedy;
      const auto exact_result = exact.Solve(v, k);
      const auto greedy_result = greedy.Solve(v, k);
      const size_t threshold = AttributeHardnessThreshold(yes);
      const auto extracted =
          ExtractMatchingFromColumns(yes, v, exact_result.suppressed);
      const bool ok = exact_result.num_suppressed() == threshold &&
                      extracted.has_value();
      all_ok &= ok;
      table.AddRow(
          {bench::ReportTable::Int(seed), bench::ReportTable::Int(k),
           "YES", bench::ReportTable::Int(n),
           bench::ReportTable::Int(yes.num_edges()),
           bench::ReportTable::Int(static_cast<long long>(threshold)),
           bench::ReportTable::Int(
               static_cast<long long>(exact_result.num_suppressed())),
           bench::ReportTable::Int(
               static_cast<long long>(greedy_result.num_suppressed())),
           ok ? "OPT==thr, matching extracted" : "VIOLATED"});
    }
    for (uint32_t seed = 1; seed <= trials; ++seed) {
      Rng rng(seed * 31 + k);
      const Hypergraph no =
          MatchingFreeHypergraph(n + (n % k == 0 ? 0 : k - n % k), k,
                                 6, &rng);
      const Table v = BuildAttributeInstance(no);
      ExactAttributeAnonymizer exact;
      const auto exact_result = exact.Solve(v, k);
      const size_t threshold = AttributeHardnessThreshold(no);
      const bool ok =
          exact_result.num_suppressed() > threshold &&
          !HasPerfectMatching(no);
      all_ok &= ok;
      table.AddRow(
          {bench::ReportTable::Int(seed), bench::ReportTable::Int(k), "NO",
           bench::ReportTable::Int(no.num_vertices()),
           bench::ReportTable::Int(no.num_edges()),
           bench::ReportTable::Int(static_cast<long long>(threshold)),
           bench::ReportTable::Int(
               static_cast<long long>(exact_result.num_suppressed())),
           "-", ok ? "OPT > thr" : "VIOLATED"});
    }
  }

  table.Print();
  bench::PrintVerdict(all_ok,
                      all_ok ? "Theorem 3.2 equivalence reproduced on all "
                               "instances"
                             : "reduction equivalence violated");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
