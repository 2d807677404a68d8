// M1 — micro benchmarks for the distance/diameter kernels that dominate
// the cover algorithms' inner loops (Definition 4.1 machinery).

#include <vector>

#include "benchmark/benchmark.h"
#include "core/cost.h"
#include "core/distance.h"
#include "core/distance_oracle.h"
#include "data/generators/uniform.h"
#include "util/random.h"
#include "util/run_context.h"

namespace kanon {
namespace {

Table MakeTable(int64_t n, int64_t m) {
  Rng rng(42);
  return UniformTable({.num_rows = static_cast<uint32_t>(n),
                       .num_columns = static_cast<uint32_t>(m),
                       .alphabet = 8},
                      &rng);
}

void BM_RowDistance(benchmark::State& state) {
  const Table t = MakeTable(64, state.range(0));
  RowId a = 0, b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RowDistance(t, a, b));
    a = (a + 1) % t.num_rows();
    b = (b + 3) % t.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowDistance)->Arg(8)->Arg(32)->Arg(128);

// The seed implementation before the data-plane refactor: a serial
// row-major double loop. Kept inline as the baseline the oracle's dense
// fill is measured against (ci.sh asserts dense < scalar at n = 2048).
void BM_DistanceMatrixBuildScalarSeed(benchmark::State& state) {
  const Table t = MakeTable(state.range(0), 16);
  const RowId n = t.num_rows();
  std::vector<ColId> dist(static_cast<size_t>(n) * n);
  for (auto _ : state) {
    for (RowId a = 0; a < n; ++a) {
      dist[static_cast<size_t>(a) * n + a] = 0;
      for (RowId b = a + 1; b < n; ++b) {
        const ColId d = RowDistance(t, a, b);
        dist[static_cast<size_t>(a) * n + b] = d;
        dist[static_cast<size_t>(b) * n + a] = d;
      }
    }
    benchmark::DoNotOptimize(dist[static_cast<size_t>(n) * n - 1]);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistanceMatrixBuildScalarSeed)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);

// The production path: the oracle's dense branch, a byte-cell strip fill
// over the columnar mirror's byte plane (alphabet 8), parallel over rows
// (core/distance_oracle.cc). The "Tiled" name is historical (the fill
// used to walk tile pairs); it stays because ci.sh's A/B gate keys on it.
void BM_DistanceMatrixBuildTiled(benchmark::State& state) {
  const Table t = MakeTable(state.range(0), 16);
  for (auto _ : state) {
    const auto oracle = DistanceOracle::Create(t, {}, nullptr);
    benchmark::DoNotOptimize((*oracle)->at(0, t.num_rows() - 1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistanceMatrixBuildTiled)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);

// The same table with every code moved past a byte, so the fill reads
// the 4-byte columns: the path a table with a code of 255 or more takes.
void BM_DistanceMatrixBuildWide(benchmark::State& state) {
  Table t = MakeTable(state.range(0), 16);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (ColId c = 0; c < t.num_columns(); ++c) {
      t.set(r, c, t.at(r, c) + 256);
    }
  }
  for (auto _ : state) {
    const auto oracle = DistanceOracle::Create(t, {}, nullptr);
    benchmark::DoNotOptimize((*oracle)->at(0, t.num_rows() - 1));
  }
}
BENCHMARK(BM_DistanceMatrixBuildWide)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_OracleLookupDense(benchmark::State& state) {
  const Table t = MakeTable(state.range(0), 16);
  RunContext ctx;
  const auto oracle =
      DistanceOracle::Create(t, DistanceOracleOptions{}, &ctx);
  RowId a = 0, b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*oracle)->at(a, b));
    a = (a + 1) % t.num_rows();
    b = (b + 3) % t.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleLookupDense)->Arg(256)->Arg(1024);

// On-demand path: every lookup is one row comparison. The access
// pattern sweeps b while a stays in a small working set, which is how
// the center scans probe distances.
void BM_OracleLookupOnDemand(benchmark::State& state) {
  const Table t = MakeTable(state.range(0), 16);
  RunContext ctx;
  const auto oracle = DistanceOracle::Create(
      t, DistanceOracleOptions{.dense_threshold = 0}, &ctx);
  RowId a = 0, b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*oracle)->at(a % 8, b));
    a = (a + 1) % t.num_rows();
    b = (b + 3) % t.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleLookupOnDemand)->Arg(256)->Arg(1024);

void BM_SetDiameter(benchmark::State& state) {
  const Table t = MakeTable(64, 16);
  Group g;
  for (RowId r = 0; r < static_cast<RowId>(state.range(0)); ++r) {
    g.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetDiameter(t, g));
  }
}
BENCHMARK(BM_SetDiameter)->Arg(3)->Arg(5)->Arg(9)->Arg(17);

void BM_AnonCost(benchmark::State& state) {
  const Table t = MakeTable(64, 16);
  Group g;
  for (RowId r = 0; r < static_cast<RowId>(state.range(0)); ++r) {
    g.push_back(r * 2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnonCost(t, g));
  }
}
BENCHMARK(BM_AnonCost)->Arg(3)->Arg(5)->Arg(9)->Arg(17);

void BM_KthNearest(benchmark::State& state) {
  const Table t = MakeTable(state.range(0), 16);
  const auto oracle = DistanceOracle::Create(t, {}, nullptr);
  RowId r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*oracle)->KthNearestDistance(r, 3));
    r = (r + 1) % t.num_rows();
  }
}
BENCHMARK(BM_KthNearest)->Arg(64)->Arg(256);

}  // namespace
}  // namespace kanon
