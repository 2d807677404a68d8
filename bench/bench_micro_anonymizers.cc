// M3 — end-to-end micro benchmarks: one Run() per algorithm on fixed
// workloads, so regressions in any phase (family build, cover, reduce,
// suppression) show up in a single number.

#include <algorithm>
#include <vector>

#include "algo/ball_cover.h"
#include "algo/branch_bound.h"
#include "algo/cluster_greedy.h"
#include "algo/exact_dp.h"
#include "algo/greedy_cover.h"
#include "algo/mdav.h"
#include "algo/mondrian.h"
#include "benchmark/benchmark.h"
#include "data/generators/census.h"
#include "data/generators/clustered.h"
#include "data/generators/uniform.h"
#include "util/random.h"
#include "util/run_context.h"

namespace kanon {
namespace {

Table ClusteredWorkload(uint32_t n, uint32_t m) {
  Rng rng(5);
  ClusteredTableOptions opt;
  opt.num_rows = n;
  opt.num_columns = m;
  opt.alphabet = 6;
  opt.num_clusters = std::max<uint32_t>(2, n / 8);
  opt.noise_flips = 1;
  return ClusteredTable(opt, &rng);
}

void BM_BallCover(benchmark::State& state) {
  const Table t = ClusteredWorkload(static_cast<uint32_t>(state.range(0)),
                                    8);
  for (auto _ : state) {
    BallCoverAnonymizer algo;
    benchmark::DoNotOptimize(algo.Run(t, 3).cost);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BallCover)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Complexity();

void BM_GreedyCoverK2(benchmark::State& state) {
  const Table t = ClusteredWorkload(static_cast<uint32_t>(state.range(0)),
                                    8);
  for (auto _ : state) {
    GreedyCoverAnonymizer algo;
    benchmark::DoNotOptimize(algo.Run(t, 2).cost);
  }
}
BENCHMARK(BM_GreedyCoverK2)->Arg(12)->Arg(20)->Arg(28);

void BM_ExactDp(benchmark::State& state) {
  const Table t = ClusteredWorkload(static_cast<uint32_t>(state.range(0)),
                                    6);
  for (auto _ : state) {
    ExactDpAnonymizer algo;
    benchmark::DoNotOptimize(algo.Run(t, 2).cost);
  }
}
BENCHMARK(BM_ExactDp)->Arg(10)->Arg(14)->Arg(16);

void BM_Mondrian(benchmark::State& state) {
  Rng rng(9);
  const Table t = CensusTable(
      {.num_rows = static_cast<uint32_t>(state.range(0))}, &rng);
  for (auto _ : state) {
    MondrianAnonymizer algo;
    benchmark::DoNotOptimize(algo.Run(t, 5).cost);
  }
}
BENCHMARK(BM_Mondrian)->Arg(128)->Arg(512)->Arg(2048);

void BM_ClusterGreedy(benchmark::State& state) {
  const Table t = ClusteredWorkload(static_cast<uint32_t>(state.range(0)),
                                    8);
  for (auto _ : state) {
    ClusterGreedyAnonymizer algo;
    benchmark::DoNotOptimize(algo.Run(t, 4).cost);
  }
}
BENCHMARK(BM_ClusterGreedy)->Arg(32)->Arg(128);

// The resilient chain's anytime stage on the service's request shape:
// kanon_load's 256-table pool (24x3, alphabet 4, same generator and
// seed), k=3, each table one Run on a fresh context with the 2000-node
// budget kanon_load sends. One iteration solves the whole pool.
void BM_BranchBoundPool(benchmark::State& state) {
  Rng rng(42, /*stream=*/0x6c6f6164ull);  // "load"
  std::vector<Table> pool;
  for (int i = 0; i < 256; ++i) {
    pool.push_back(UniformTable(
        {.num_rows = 24, .num_columns = 3, .alphabet = 4}, &rng));
  }
  for (auto _ : state) {
    for (const Table& t : pool) {
      RunContext ctx;
      ctx.set_node_budget(2000);
      BranchBoundAnonymizer algo;
      benchmark::DoNotOptimize(algo.Run(t, 3, &ctx).cost);
    }
  }
}
BENCHMARK(BM_BranchBoundPool)->Unit(benchmark::kMillisecond);

// mdav on serve_bench's mdav_large request shape: one seeded 2048-row
// census table (8 columns), k=5, one Run per iteration on a fresh
// context, so the dense distance oracle's build is timed with the scans.
void BM_MdavCensus(benchmark::State& state) {
  Rng rng(2048);
  const Table t = CensusTable({.num_rows = 2048}, &rng);
  for (auto _ : state) {
    RunContext ctx;
    MdavAnonymizer algo;
    benchmark::DoNotOptimize(algo.Run(t, 5, &ctx).cost);
  }
}
BENCHMARK(BM_MdavCensus)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kanon
