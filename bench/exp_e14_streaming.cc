// E14 — extension: deployment scaling of the Theorem 4.2 algorithm.
//
// The paper's O(m n^2 + n^3) is fine for one-shot batch jobs but a
// production deployment of the algorithm bounds memory and latency by
// anonymizing in batches (groups never span batches, so the privacy
// guarantee is preserved by construction). This experiment quantifies
// the deployment trade-off on the paper's algorithm: suppression cost
// and wall-clock vs batch size, from tiny batches to the whole table.

#include <iostream>
#include <memory>
#include <string>

#include "algo/ball_cover.h"
#include "algo/local_search.h"
#include "algo/streaming.h"
#include "util/report.h"
#include "data/generators/clustered.h"
#include "util/cli.h"
#include "util/random.h"

namespace kanon {
namespace {

std::unique_ptr<Anonymizer> MakeBase() {
  return std::make_unique<LocalSearchAnonymizer>(
      std::make_unique<BallCoverAnonymizer>());
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e14_streaming", {"n", "k"})) return 1;
  const uint32_t n = static_cast<uint32_t>(cl.GetInt("n", 600));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 4));

  bench::PrintBanner(
      "E14 (extension): batched deployment of the Theorem 4.2 algorithm",
      "groups never span batches -> guarantee preserved; cost rises "
      "and time falls as batches shrink (superlinear base)",
      "clustered data, n = " + std::to_string(n) + ", k = " +
          std::to_string(k) + ", base = ball_cover+local_search");

  Rng rng(1);
  ClusteredTableOptions copt;
  copt.num_rows = n;
  copt.num_columns = 8;
  copt.alphabet = 6;
  copt.num_clusters = n / 8;
  copt.noise_flips = 1;
  const Table t = ClusteredTable(copt, &rng);

  bench::ReportTable table(
      {"batch size", "batches", "stars", "stars vs whole", "time (ms)"});
  size_t whole_cost = 0;
  bool monotone_cost = true;
  size_t prev_cost = 0;
  bool first = true;
  for (const size_t batch : {n, n / 2, n / 4, n / 8, n / 16}) {
    StreamingOptions opt;
    opt.batch_size = batch;
    StreamingAnonymizer algo(MakeBase(), opt);
    const auto result = algo.Run(t, k);
    if (first) whole_cost = result.cost;
    const double rel = static_cast<double>(result.cost) /
                       static_cast<double>(whole_cost);
    const size_t batches = (n + batch - 1) / batch;
    table.AddRow({bench::ReportTable::Int(static_cast<long long>(batch)),
                  bench::ReportTable::Int(static_cast<long long>(batches)),
                  bench::ReportTable::Int(static_cast<long long>(result.cost)),
                  bench::ReportTable::Num(rel, 3),
                  bench::ReportTable::Num(result.seconds * 1e3, 1)});
    if (!first && result.cost + n / 10 < prev_cost) {
      // Shrinking batches should not *improve* cost beyond noise.
      monotone_cost = false;
    }
    prev_cost = result.cost;
    first = false;
  }
  table.Print();

  std::cout << "\n(cost overhead of batching is the price of bounded "
            << "memory; the k-anonymity guarantee itself is unaffected)\n";
  bench::PrintVerdict(monotone_cost,
                      "batching trades bounded overhead in stars for "
                      "large wall-clock/memory savings");
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
