#include "workload.h"

#include "algo/fallback.h"
#include "data/csv_table.h"
#include "data/generators/census.h"
#include "data/generators/uniform.h"
#include "service/cache.h"
#include "util/fingerprint.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

namespace {

using kanon::Rng;

// Pool sizes. The hot set recurs every 2 x 16 requests, well inside the
// 64-entry result cache; the cold pool and the chain and census pools
// recur only after more distinct tables than the cache holds, so those
// requests always miss. branch_bound's time on one 24-row table ranges
// from 0.8 to 28 ms at the same node budget (coefficient of variation
// 0.96), so the chain pool is 2048 tables: with 256, the pool's mean
// cost alone moved about 8% from seed to seed.
constexpr size_t kTinyHot = 16;
constexpr size_t kTinyCold = 1024;
constexpr size_t kChainPool = 2048;
constexpr size_t kChainWarmup = 128;
constexpr size_t kCensusPool = 96;
constexpr uint32_t kCensusRows = 2048;

void AddUniformTables(size_t count, uint32_t rows, Rng* rng, Workload* w) {
  kanon::UniformTableOptions options;
  options.num_rows = rows;
  options.num_columns = 3;
  options.alphabet = 4;
  for (size_t i = 0; i < count; ++i) {
    w->csv.push_back(kanon::TableToCsv(kanon::UniformTable(options, rng)));
  }
}

void AddCensusTables(Rng* rng, Workload* w) {
  kanon::CensusTableOptions options;
  options.num_rows = kCensusRows;
  for (size_t i = 0; i < kCensusPool; ++i) {
    w->csv.push_back(kanon::TableToCsv(kanon::CensusTable(options, rng)));
  }
}

}  // namespace

size_t Workload::TableFor(uint64_t request_index) const {
  if (hot_tables == 0) return request_index % csv.size();
  const uint64_t half = request_index / 2;
  if (request_index % 2 == 0) return half % hot_tables;
  return hot_tables + half % (csv.size() - hot_tables);
}

std::vector<std::string> Workload::Stages() const {
  if (algorithm == "resilient") return kanon::FallbackOptions{}.stages;
  std::vector<std::string> stages = {algorithm};
  if (algorithm != "greedy_cover" && algorithm != "suppress_all") {
    stages.push_back("greedy_cover");
  }
  if (algorithm != "suppress_all") stages.push_back("suppress_all");
  return stages;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "frontend_tiny") {
    Rng rng(seed, /*stream=*/0x74696e79ull);  // "tiny"
    w.algorithm = "mdav";
    w.k = 2;
    w.connections = 2;
    w.warmup_requests = 2048;
    w.hot_tables = kTinyHot;
    w.max_rps = 200000;
    w.goodput_limit_ms = 0.25;
    AddUniformTables(kTinyHot + kTinyCold, 8, &rng, &w);
  } else if (name == "chain_small") {
    Rng rng(seed, /*stream=*/0x636861696eull);  // "chain"
    w.algorithm = "resilient";
    w.k = 3;
    w.node_budget = 2000;
    w.connections = 4;
    w.warmup_requests = kChainWarmup;
    w.max_rps = 50000;
    w.goodput_limit_ms = 70.0;
    AddUniformTables(kChainPool, 24, &rng, &w);
  } else if (name == "mdav_large") {
    Rng rng(seed, /*stream=*/0x63656e737573ull);  // "census"
    w.algorithm = "mdav";
    w.k = 5;
    w.connections = 4;
    w.warmup_requests = 8;
    w.max_rps = 5000;
    w.goodput_limit_ms = 650.0;
    AddCensusTables(&rng, &w);
  } else {
    return false;
  }
  w.tables.reserve(w.csv.size());
  w.pool_fingerprint = kanon::kFingerprintSeed;
  for (const std::string& text : w.csv) {
    kanon::StatusOr<kanon::Table> table = kanon::ParseTableCsv(text);
    KANON_CHECK(table.ok()) << table.status().ToString();
    w.pool_fingerprint = kanon::FingerprintInt(
        w.pool_fingerprint, kanon::TableFingerprint(*table));
    w.tables.push_back(*std::move(table));
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
