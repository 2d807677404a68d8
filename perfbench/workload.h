#ifndef KANON_PERFBENCH_WORKLOAD_H_
#define KANON_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"

/// \file
/// The serving benchmark's three workloads and their seeded input pools.
///
/// Every table is generated from the workload seed before the service
/// starts; the service only ever sees the CSV text. The parsed copies
/// are the benchmark's own, used to check answers and to replay them.

namespace perfbench {

/// Fixed serving configuration shared by every workload: 2 workers, each
/// running kernels on up to 2 threads, so workers x kernel threads equals
/// the 4 cores the benchmark is sized for and never more threads are
/// runnable than there are cores.
inline constexpr unsigned kWorkers = 2;
inline constexpr unsigned kParallelism = 2;
inline constexpr size_t kCacheCapacity = 64;
inline constexpr size_t kQueueCapacity = 64;

struct Workload {
  std::string name;
  /// Registry name sent on every request.
  std::string algorithm;
  size_t k = 0;
  /// Request node budget; 0 = none.
  uint64_t node_budget = 0;
  /// Closed-loop client connections.
  int connections = 0;
  /// Requests every set-up runs before it counts as done.
  size_t warmup_requests = 0;
  /// Tables [0, hot_tables) are the hot set that every other request
  /// cycles through; the rest form the cold pool. 0 = no hot set: every
  /// request cycles through the whole pool.
  size_t hot_tables = 0;
  /// Upper bound on OK answers in one timed second, used to size the
  /// latency buffers once, before any request is sent.
  size_t max_rps = 0;
  /// goodput_frac counts OK answers with a client latency at most this:
  /// about twice the workload's p99 over ten seeds (STEADINESS.md).
  double goodput_limit_ms = 0.0;
  /// CSV text per pool table (what the service receives).
  std::vector<std::string> csv;
  /// The same tables parsed from `csv`.
  std::vector<kanon::Table> tables;
  /// Fingerprint over every pool table, stamped so runs with one seed
  /// can be shown to share inputs.
  uint64_t pool_fingerprint = 0;

  /// Pool index of the i-th request of a run.
  size_t TableFor(uint64_t request_index) const;

  /// The worker pool's fallback chain for `algorithm`: the chain
  /// defaults for `resilient`, otherwise the algorithm followed by
  /// greedy_cover and suppress_all (each only once).
  std::vector<std::string> Stages() const;
};

/// Builds workload `name` from `seed`; false when the name is unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace perfbench

#endif  // KANON_PERFBENCH_WORKLOAD_H_
