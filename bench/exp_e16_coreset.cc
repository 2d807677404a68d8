// E16 — coreset fidelity and million-row feasibility.
//
// Claim: since optimal k-anonymity is NP-hard (Theorem 3.2) and even
// the strongly-polynomial heuristics are superlinear, solving a small
// weighted coreset and assigning the remaining rows to the solved
// groups trades a bounded cost gap for orders-of-magnitude less solver
// work. We sweep the sample rate at a direct-solvable n, report the
// suppression-cost gap coreset/direct per rate, and (optionally) prove
// the pipeline end-to-end at n in the millions — a scale where the
// direct solver is not even attempted.
//
// The JSON written to --out is the CI gate input: `default_gap` must
// stay under the quality threshold at n = 2048.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "core/cost.h"
#include "core/partition.h"
#include "coreset/coreset_anonymizer.h"
#include "coreset/sampler.h"
#include "data/generators/adversarial.h"
#include "data/generators/clustered.h"
#include "data/generators/synthetic.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/report.h"
#include "util/run_context.h"

namespace kanon {
namespace {

struct SweepPoint {
  double rate = 0.0;
  size_t cost = 0;
  double gap = 0.0;  // cost / direct_cost
  double seconds = 0.0;
  std::string notes;
};

struct ShapePoint {
  std::string shape;
  size_t rows = 0;
  size_t direct_cost = 0;
  size_t cost = 0;
  double gap = 0.0;
  bool valid = false;
};

/// Table-shape sweep workloads at roughly `n` rows: the favourable
/// planted-cluster instance, a Zipf-skewed value distribution, and the
/// decoy-cluster adversary that misleads greedy ball growth.
Table ShapeTable(const std::string& shape, size_t n, uint64_t seed) {
  if (shape == "clustered") {
    ClusteredTableOptions options;
    options.num_rows = static_cast<uint32_t>(n);
    options.num_columns = 6;
    options.alphabet = 8;
    options.num_clusters = static_cast<uint32_t>(std::max<size_t>(n / 32, 2));
    options.noise_flips = 1;
    Rng rng(seed);
    return ClusteredTable(options, &rng);
  }
  if (shape == "zipf") {
    SyntheticTableOptions options;
    options.num_rows = n;
    options.seed = seed;
    options.zipf_s = 1.2;
    return SyntheticTable(options);
  }
  if (shape == "adversarial") {
    DecoyClusterOptions options;
    // num_clusters * (cluster_size + decoys_per_cluster) ~= n rows.
    options.cluster_size = 8;
    options.decoys_per_cluster = 4;
    options.num_clusters =
        static_cast<uint32_t>(std::max<size_t>(n / 12, 2));
    Rng rng(seed);
    return DecoyClusterTable(options, &rng);
  }
  SyntheticTableOptions options;
  options.num_rows = n;
  options.seed = seed;
  return SyntheticTable(options);
}

AnonymizationResult RunCoreset(const Table& table, size_t k,
                               const std::string& inner, double rate,
                               uint64_t seed) {
  CoresetOptions options;
  options.sample_rate = rate;
  options.seed = seed;
  CoresetAnonymizer algo(MakeAnonymizer(inner), options);
  RunContext ctx;
  return algo.Run(table, k, &ctx);
}

int Main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (!CheckKnownFlags(cl, "exp_e16_coreset",
                       {"n", "k", "seed", "inner", "out", "big_rows"})) {
    return 1;
  }
  const size_t n = static_cast<size_t>(cl.GetInt("n", 2048));
  const size_t k = static_cast<size_t>(cl.GetInt("k", 5));
  const uint64_t seed = static_cast<uint64_t>(cl.GetInt("seed", 42));
  const std::string inner = cl.GetString("inner", "mdav");
  const std::string out = cl.GetString("out", "");
  const size_t big_rows = static_cast<size_t>(cl.GetInt("big_rows", 0));

  bench::PrintBanner(
      "E16 (coreset fidelity): weighted coreset vs direct solve",
      "suppression-cost gap coreset/direct stays bounded as the sample "
      "rate shrinks; the pipeline stays feasible at n >> direct reach",
      "synthetic tables, inner = " + inner + ", n = " + std::to_string(n) +
          ", k = " + std::to_string(k));

  SyntheticTableOptions gen;
  gen.num_rows = n;
  gen.seed = seed;
  const Table table = SyntheticTable(gen);

  // Direct baseline: the inner solver on the full table.
  std::unique_ptr<Anonymizer> direct = MakeAnonymizer(inner);
  const AnonymizationResult base = direct->Run(table, k);
  if (!base.completed() || base.partition.groups.empty()) {
    std::cerr << "direct " << inner << " did not complete at n=" << n
              << "\n";
    return 1;
  }
  std::cout << "direct " << inner << ": cost " << base.cost << " in "
            << bench::ReportTable::Num(base.seconds * 1e3, 1) << " ms\n\n";

  bench::ReportTable sweep_table(
      {"rate", "sample", "cost", "gap", "time (ms)"});
  std::vector<SweepPoint> sweep;
  bool all_valid = true;
  for (const double rate :
       {0.05, 0.10, kDefaultCoresetRate, 0.25, 0.50}) {
    const AnonymizationResult run =
        RunCoreset(table, k, inner, rate, seed);
    const bool valid =
        run.completed() &&
        IsValidPartition(run.partition, static_cast<RowId>(n), k, n);
    all_valid = all_valid && valid;
    SweepPoint point;
    point.rate = rate;
    point.cost = run.cost;
    point.gap = base.cost == 0
                    ? (run.cost == 0 ? 1.0 : 2.0)
                    : static_cast<double>(run.cost) / base.cost;
    point.seconds = run.seconds;
    point.notes = run.notes;
    sweep.push_back(point);
    CoresetOptions probe;
    probe.sample_rate = rate;
    sweep_table.AddRow(
        {bench::ReportTable::Num(rate, 3),
         bench::ReportTable::Int(static_cast<long long>(
             ResolveSampleSize(n, k, probe))),
         bench::ReportTable::Int(static_cast<long long>(run.cost)),
         bench::ReportTable::Num(point.gap, 3),
         bench::ReportTable::Num(run.seconds * 1e3, 1)});
  }
  sweep_table.Print();

  double default_gap = 0.0;
  for (const SweepPoint& point : sweep) {
    if (point.rate == kDefaultCoresetRate) default_gap = point.gap;
  }
  std::cout << "\ndefault rate " << kDefaultCoresetRate << " gap: "
            << bench::ReportTable::Num(default_gap, 3) << "\n";

  // Table-shape sweep at the default rate: the gap must stay finite and
  // the partition valid on favourable, skewed, and adversarial shapes
  // alike (the decoy instance is allowed a worse gap — it is built to
  // mislead sampling — but never an invalid answer).
  std::cout << "\nshape sweep (default rate):\n";
  bench::ReportTable shape_report(
      {"shape", "rows", "direct", "coreset", "gap", "valid"});
  std::vector<ShapePoint> shapes;
  bool shapes_valid = true;
  for (const std::string shape : {"clustered", "zipf", "adversarial"}) {
    const Table shaped = ShapeTable(shape, n, seed + 2);
    const size_t rows = shaped.num_rows();
    const AnonymizationResult shape_base = direct->Run(shaped, k);
    const AnonymizationResult shape_run =
        RunCoreset(shaped, k, inner, /*rate=*/0.0, seed);
    ShapePoint point;
    point.shape = shape;
    point.rows = rows;
    point.direct_cost = shape_base.cost;
    point.cost = shape_run.cost;
    point.gap = shape_base.cost == 0
                    ? (shape_run.cost == 0 ? 1.0 : 2.0)
                    : static_cast<double>(shape_run.cost) /
                          shape_base.cost;
    point.valid =
        shape_base.completed() && shape_run.completed() &&
        IsValidPartition(shape_run.partition, static_cast<RowId>(rows),
                         k, rows);
    shapes_valid = shapes_valid && point.valid;
    shapes.push_back(point);
    shape_report.AddRow(
        {shape, bench::ReportTable::Int(static_cast<long long>(rows)),
         bench::ReportTable::Int(static_cast<long long>(shape_base.cost)),
         bench::ReportTable::Int(static_cast<long long>(shape_run.cost)),
         bench::ReportTable::Num(point.gap, 3),
         point.valid ? "yes" : "NO"});
  }
  shape_report.Print();

  // Optional feasibility leg: n in the millions, validity asserted on the
  // full-table partition.
  size_t big_cost = 0;
  double big_seconds = 0.0;
  bool big_valid = false;
  size_t big_groups = 0;
  if (big_rows > 0) {
    SyntheticTableOptions big_gen;
    big_gen.num_rows = big_rows;
    big_gen.seed = seed + 1;
    const Table big = SyntheticTable(big_gen);
    const AnonymizationResult run =
        RunCoreset(big, k, inner, /*rate=*/0.0, seed);
    big_valid = run.completed() &&
                IsValidPartition(run.partition,
                                 static_cast<RowId>(big_rows), k,
                                 big_rows);
    big_cost = run.cost;
    big_seconds = run.seconds;
    big_groups = run.partition.num_groups();
    std::cout << "\nbig run: n=" << big_rows << " -> "
              << (big_valid ? "valid" : "INVALID") << " partition, "
              << big_groups << " groups, cost " << big_cost << " in "
              << bench::ReportTable::Num(big_seconds, 2) << " s ("
              << run.notes << ")\n";
  }

  if (!out.empty()) {
    std::ofstream json(out);
    json << "{\n  \"n\": " << n << ",\n  \"k\": " << k
         << ",\n  \"inner\": \"" << inner
         << "\",\n  \"direct_cost\": " << base.cost
         << ",\n  \"direct_seconds\": " << base.seconds
         << ",\n  \"default_rate\": " << kDefaultCoresetRate
         << ",\n  \"default_gap\": " << default_gap
         << ",\n  \"all_valid\": " << (all_valid ? "true" : "false")
         << ",\n  \"shapes_valid\": " << (shapes_valid ? "true" : "false")
         << ",\n  \"sweep\": [";
    for (size_t i = 0; i < sweep.size(); ++i) {
      json << (i == 0 ? "" : ",") << "\n    {\"rate\": " << sweep[i].rate
           << ", \"cost\": " << sweep[i].cost
           << ", \"gap\": " << sweep[i].gap
           << ", \"seconds\": " << sweep[i].seconds << "}";
    }
    json << "\n  ],\n  \"shapes\": [";
    for (size_t i = 0; i < shapes.size(); ++i) {
      json << (i == 0 ? "" : ",") << "\n    {\"shape\": \""
           << shapes[i].shape << "\", \"rows\": " << shapes[i].rows
           << ", \"direct_cost\": " << shapes[i].direct_cost
           << ", \"cost\": " << shapes[i].cost
           << ", \"gap\": " << shapes[i].gap
           << ", \"valid\": " << (shapes[i].valid ? "true" : "false")
           << "}";
    }
    json << "\n  ]";
    if (big_rows > 0) {
      json << ",\n  \"big\": {\"rows\": " << big_rows
           << ", \"valid\": " << (big_valid ? "true" : "false")
           << ", \"groups\": " << big_groups
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
  const bool ok = all_valid && shapes_valid && big_ok && default_gap > 0.0;
  bench::PrintVerdict(
      ok, "coreset partitions valid at every rate and table shape; cost "
          "gap reported per rate (CI gates on default_gap)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::Main(argc, argv); }
