// E5 — Lemma 4.1 reproduction.
//
// Claim (provable form; see DESIGN.md "Lemma 4.1 constants"):
//     k · dΠ*  <=  OPT(V)  <=  (2k-1)(2k-2) · dΠ*
// for the diameter-sum-minimizing (k, 2k-1)-partition Π*. We compute
// both sides exactly (exhaustive dΠ*, exact-DP OPT) on small instances
// and report the sandwich plus how often the paper's as-printed tighter
// bound OPT <= (2k-1) dΠ* happens to hold empirically.

#include <functional>
#include <iostream>
#include <string>

#include "algo/exact_dp.h"
#include "util/report.h"
#include "core/distance_oracle.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "util/cli.h"
#include "util/random.h"

namespace kanon {
namespace {

/// Exhaustive minimum diameter sum over (k, 2k-1)-partitions.
size_t MinDiameterSum(const Table& table, size_t k) {
  const RowId n = table.num_rows();
  const auto oracle = DistanceOracle::Create(table, {}, nullptr);
  const DistanceOracle& dm = **oracle;
  size_t best = static_cast<size_t>(-1);
  std::vector<bool> assigned(n, false);
  std::function<void(size_t)> recurse = [&](size_t current) {
    if (current >= best) return;
    RowId anchor = n;
    for (RowId r = 0; r < n; ++r) {
      if (!assigned[r]) {
        anchor = r;
        break;
      }
    }
    if (anchor == n) {
      best = current;
      return;
    }
    std::vector<RowId> candidates;
    for (RowId r = anchor + 1; r < n; ++r) {
      if (!assigned[r]) candidates.push_back(r);
    }
    Group group = {anchor};
    std::function<void(size_t)> extend = [&](size_t pos) {
      if (group.size() >= k) {
        for (const RowId r : group) assigned[r] = true;
        recurse(current + dm.Diameter(group));
        for (const RowId r : group) assigned[r] = false;
      }
      if (group.size() == 2 * k - 1) return;
      for (size_t i = pos; i < candidates.size(); ++i) {
        group.push_back(candidates[i]);
        extend(i + 1);
        group.pop_back();
      }
    };
    extend(0);
  };
  recurse(0);
  return best;
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e5_lemma41", {"trials", "n"})) return 1;
  const uint32_t trials = static_cast<uint32_t>(cl.GetInt("trials", 6));
  const uint32_t n = static_cast<uint32_t>(cl.GetInt("n", 9));

  bench::PrintBanner(
      "E5 (Lemma 4.1): diameter-sum sandwich around OPT",
      "k·dPi* <= OPT <= (2k-1)(2k-2)·dPi* (corrected constants); "
      "as-printed (2k-1)·dPi* measured for comparison",
      "exhaustive dPi*, exact-DP OPT; uniform + clustered, n = " +
          std::to_string(n) + ", k in {2, 3}");

  bench::ReportTable table({"workload", "k", "seed", "dPi*", "OPT",
                            "k*dPi*<=OPT", "OPT<=(2k-1)(2k-2)dPi*",
                            "as-printed holds"});
  bool sandwich_ok = true;
  size_t as_printed_holds = 0, as_printed_total = 0;

  for (const std::string kind : {"uniform", "clustered"}) {
    for (const size_t k : {2u, 3u}) {
      for (uint32_t seed = 1; seed <= trials; ++seed) {
        Rng rng(seed * 7 + k);
        Table t = [&] {
          if (kind == "clustered") {
            ClusteredTableOptions opt;
            opt.num_rows = n;
            opt.num_columns = 6;
            opt.alphabet = 4;
            opt.num_clusters = 3;
            opt.noise_flips = 1;
            return ClusteredTable(opt, &rng);
          }
          UniformTableOptions opt;
          opt.num_rows = n;
          opt.num_columns = 6;
          opt.alphabet = 3;
          return UniformTable(opt, &rng);
        }();
        ExactDpAnonymizer exact;
        const size_t opt = exact.Run(t, k).cost;
        const size_t dpi = MinDiameterSum(t, k);
        const bool left = k * dpi <= opt;
        const bool right =
            (dpi == 0) ? (opt == 0)
                       : (opt <= (2 * k - 1) * (2 * k - 2) * dpi);
        const bool printed = opt <= (2 * k - 1) * dpi;
        sandwich_ok &= left && right;
        ++as_printed_total;
        if (printed) ++as_printed_holds;
        table.AddRow({kind, bench::ReportTable::Int(static_cast<long long>(k)),
                      bench::ReportTable::Int(seed),
                      bench::ReportTable::Int(static_cast<long long>(dpi)),
                      bench::ReportTable::Int(static_cast<long long>(opt)),
                      left ? "yes" : "NO", right ? "yes" : "NO",
                      printed ? "yes" : "no"});
      }
    }
  }

  table.Print();
  std::cout << "\nas-printed bound held on " << as_printed_holds << "/"
            << as_printed_total
            << " instances (it is not a theorem; see DESIGN.md)\n";
  bench::PrintVerdict(sandwich_ok,
                      "corrected Lemma 4.1 sandwich holds on every "
                      "instance");
  return sandwich_ok ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
