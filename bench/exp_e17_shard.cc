// E17 — shard-pipeline speedup and fidelity.
//
// Claim: the plan/solve/merge shard pipeline turns one superlinear
// inner solve into S independent solves of n/S rows each, so even run
// serially it wins wall-clock on superlinear inners (MDAV is ~O(n^2)),
// and with intra-job parallelism the shard solves overlap on top of
// that. The price is a bounded suppression-cost gap from cutting the
// table before solving. We time the unsharded inner and the sharded
// wrapper on the same table and report speedup = direct/sharded
// seconds plus gap = sharded/direct cost; an optional big leg proves
// the pipeline at n far beyond the direct solver's reach.
//
// The JSON written to --out is the CI gate input: sharded must beat
// direct on wall-clock and `gap` must stay under the quality threshold
// at n = 65536.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "algo/registry.h"
#include "algo/shard_plan.h"
#include "algo/sharded_anonymizer.h"
#include "core/cost.h"
#include "core/partition.h"
#include "data/generators/synthetic.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/report.h"
#include "util/run_context.h"

namespace kanon {
namespace {

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e17_shard",
                       {"n", "k", "seed", "inner", "shards", "parallelism",
                        "out", "big_rows"})) {
    return 1;
  }
  const size_t n = static_cast<size_t>(cl.GetInt("n", 65536));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 5));
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 42));
  const std::string inner = cl.GetString("inner", "mdav");
  const size_t shards = static_cast<size_t>(cl.GetInt("shards", 8));
  const size_t parallelism =
      static_cast<size_t>(cl.GetInt("parallelism", 0));
  const std::string out = cl.GetString("out", "");
  const size_t big_rows = static_cast<size_t>(cl.GetInt("big_rows", 0));

  bench::PrintBanner(
      "E17 (shard pipeline): plan/solve/merge vs direct solve",
      "sharded wall-clock beats the unsharded inner at superlinear n "
      "while the suppression-cost gap stays bounded",
      "synthetic tables, inner = " + inner + ", n = " + std::to_string(n) +
          ", k = " + std::to_string(k) + ", shards = " +
          std::to_string(shards));

  SyntheticTableOptions gen;
  gen.num_rows = n;
  gen.seed = seed;
  const Table table = SyntheticTable(gen);

  ShardOptions shard_options;
  shard_options.shards = shards;
  shard_options.shard_parallelism = parallelism;

  // Direct baseline: the inner solver on the full table.
  std::unique_ptr<Anonymizer> direct = MakeAnonymizer(inner);
  if (direct == nullptr) {
    std::cerr << "unknown inner: " << inner << "\n";
    return 1;
  }
  const AnonymizationResult base = direct->Run(table, k);
  if (!base.completed() || base.partition.groups.empty()) {
    std::cerr << "direct " << inner << " did not complete at n=" << n
              << "\n";
    return 1;
  }
  std::cout << "direct  " << inner << ": cost " << base.cost << " in "
            << bench::ReportTable::Num(base.seconds, 2) << " s\n";

  // Sharded run on the same table.
  ShardedAnonymizer sharded(
      [&inner] { return MakeAnonymizer(inner); }, shard_options);
  RunContext ctx;
  const AnonymizationResult run = sharded.Run(table, k, &ctx);
  const bool valid =
      run.completed() &&
      IsValidPartition(run.partition, static_cast<RowId>(n), k, n);
  std::cout << "sharded " << inner << ": cost " << run.cost << " in "
            << bench::ReportTable::Num(run.seconds, 2) << " s ("
            << run.notes << ")\n";

  const double speedup =
      run.seconds > 0.0 ? base.seconds / run.seconds : 0.0;
  const double gap = base.cost == 0
                         ? (run.cost == 0 ? 1.0 : 2.0)
                         : static_cast<double>(run.cost) / base.cost;
  std::cout << "\nspeedup " << bench::ReportTable::Num(speedup, 2)
            << "x, cost gap " << bench::ReportTable::Num(gap, 3)
            << " (hardware parallelism " << GetParallelism() << ")\n";

  // Optional feasibility leg: sharded-only at n beyond direct reach.
  size_t big_cost = 0;
  double big_seconds = 0.0;
  bool big_valid = false;
  if (big_rows > 0) {
    SyntheticTableOptions big_gen;
    big_gen.num_rows = big_rows;
    big_gen.seed = seed + 1;
    const Table big = SyntheticTable(big_gen);
    ShardedAnonymizer big_algo(
        [&inner] { return MakeAnonymizer(inner); }, shard_options);
    RunContext big_ctx;
    const AnonymizationResult big_run = big_algo.Run(big, k, &big_ctx);
    big_valid = big_run.completed() &&
                IsValidPartition(big_run.partition,
                                 static_cast<RowId>(big_rows), k,
                                 big_rows);
    big_cost = big_run.cost;
    big_seconds = big_run.seconds;
    std::cout << "\nbig run: n=" << big_rows << " -> "
              << (big_valid ? "valid" : "INVALID") << " partition, cost "
              << big_cost << " in "
              << bench::ReportTable::Num(big_seconds, 2) << " s ("
              << big_run.notes << ")\n";
  }

  if (!out.empty()) {
    std::ofstream json(out);
    json << "{\n  \"n\": " << n << ",\n  \"k\": " << k
         << ",\n  \"inner\": \"" << inner
         << "\",\n  \"shards\": " << shards
         << ",\n  \"parallelism\": " << parallelism
         << ",\n  \"hardware_parallelism\": " << GetParallelism()
         << ",\n  \"direct_cost\": " << base.cost
         << ",\n  \"direct_seconds\": " << base.seconds
         << ",\n  \"sharded_cost\": " << run.cost
         << ",\n  \"sharded_seconds\": " << run.seconds
         << ",\n  \"speedup\": " << speedup << ",\n  \"gap\": " << gap
         << ",\n  \"valid\": " << (valid ? "true" : "false");
    if (big_rows > 0) {
      json << ",\n  \"big\": {\"rows\": " << big_rows
           << ", \"valid\": " << (big_valid ? "true" : "false")
           << ", \"cost\": " << big_cost
           << ", \"seconds\": " << big_seconds << "}";
    }
    json << "\n}\n";
    if (!json) {
      std::cerr << "failed to write " << out << "\n";
      return 1;
    }
  }

  const bool big_ok = big_rows == 0 || big_valid;
  const bool ok = valid && big_ok;
  bench::PrintVerdict(
      ok, "sharded partition valid; speedup and cost gap reported "
          "(CI gates on both at n = 65536)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
