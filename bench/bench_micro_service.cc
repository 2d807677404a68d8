// M5 — micro benchmarks for the service layer's robustness machinery.
// The headline number is the disarmed KANON_FAULT_POINT: the macro sits
// in solver hot loops (exact_dp sweeps, branch_bound nodes, ParallelFor
// chunks), so its disarmed cost must stay within noise (~1%) of the
// bare loop. Run BM_TightLoopBare vs BM_TightLoopWithFaultPoint and
// compare ns/op; BM_FaultPointArmed shows the armed (slow-path) cost
// for contrast, and the remaining benches size the other per-job
// robustness costs (backoff draw, breaker check, admission).
// BM_TerminalPathSuppressAll sizes the path a job falls back to when the
// pool's retry budget is dry; ci.sh checks that it grows linearly.

#include <atomic>

#include "benchmark/benchmark.h"
#include "core/anonymity.h"
#include "data/csv_table.h"
#include "data/generators/uniform.h"
#include "fault/fault.h"
#include "service/breaker.h"
#include "service/queue.h"
#include "service/retry.h"
#include "service/worker_pool.h"
#include "util/random.h"

namespace kanon {
namespace {

/// Baseline: the work a solver checkpoint does anyway (one relaxed
/// atomic read and a branch), with no fault point.
void BM_TightLoopBare(benchmark::State& state) {
  std::atomic<uint64_t> counter{0};
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += counter.load(std::memory_order_relaxed) + 1;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TightLoopBare);

/// The same loop with a disarmed KANON_FAULT_POINT in it. The delta
/// over BM_TightLoopBare is the macro's true hot-loop overhead; CI's
/// acceptance bar is <= 1% once the loop does any real solver work.
void BM_TightLoopWithFaultPoint(benchmark::State& state) {
  FaultRegistry::Instance().Disarm();
  std::atomic<uint64_t> counter{0};
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += counter.load(std::memory_order_relaxed) + 1;
    if (KANON_FAULT_POINT("bench.tight_loop")) sum += 1000;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TightLoopWithFaultPoint);

/// Armed slow path: hit counting plus the SplitMix64 decision.
void BM_FaultPointArmed(benchmark::State& state) {
  FaultPlan plan;
  plan.seed = 42;
  plan.sites.push_back({.site = "bench.armed_loop", .probability = 0.001});
  ScopedFaultInjection injection(plan);
  uint64_t sum = 0;
  for (auto _ : state) {
    if (KANON_FAULT_POINT("bench.armed_loop")) sum += 1000;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPointArmed);

void BM_BackoffDraw(benchmark::State& state) {
  const RetryPolicy policy;
  Rng rng(RetrySeedForJob(7));
  double prev = 0.0;
  for (auto _ : state) {
    prev = NextBackoffMillis(policy, prev, rng);
    benchmark::DoNotOptimize(prev);
    if (prev >= policy.cap_ms) prev = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackoffDraw);

/// Per-stage breaker consultation, as the chain does before each
/// non-final stage (mutex + map lookup + state check).
void BM_BreakerAllow(benchmark::State& state) {
  BreakerBoard board;
  board.Record("exact_dp", true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(board.Allow("exact_dp"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BreakerAllow);

/// One admit/dispatch round trip, including the shedding arithmetic,
/// RunContext creation and the cancellation-registry bookkeeping. The
/// queue is drained every iteration so depth (and thus occupancy) stays
/// constant.
void BM_QueueSubmitPopForget(benchmark::State& state) {
  JobQueue queue(64);
  AnonymizeRequest request;
  request.algorithm = "suppress_all";
  request.k = 1;
  ServiceError error = ServiceError::kNone;
  for (auto _ : state) {
    StatusOr<JobQueue::Ticket> ticket = queue.Submit(request, &error);
    benchmark::DoNotOptimize(ticket.ok());
    std::optional<Job> job = queue.Pop();
    queue.Forget(job->id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueSubmitPopForget);

/// The retry-budget terminal path (WorkerPool's degraded Execute): a
/// suppress_all job answered with its CSV and no cache, then the answer
/// parsed back and checked k-anonymous. Every step is O(nm), so 10x the
/// rows must cost about 10x the time; ci.sh fails the build when the
/// 10^6-row median exceeds 30x the 10^5-row one.
void BM_TerminalPathSuppressAll(benchmark::State& state) {
  Rng rng(5);
  AnonymizeRequest request;
  request.algorithm = "suppress_all";
  request.k = 5;
  request.emit_csv = true;
  request.table = UniformTable(
      {.num_rows = static_cast<uint32_t>(state.range(0)),
       .num_columns = 3,
       .alphabet = 16},
      &rng);
  ServiceError error = ServiceError::kNone;
  if (!ValidateAndPrepare(request, &error).ok()) {
    state.SkipWithError("request rejected");
    return;
  }
  for (auto _ : state) {
    RunContext ctx;
    const AnonymizeResponse response =
        WorkerPool::Execute(request, &ctx, /*cache=*/nullptr);
    const StatusOr<Table> answer = ParseTableCsv(response.anonymized_csv);
    const bool valid =
        response.ok() && answer.ok() && IsKAnonymous(*answer, request.k);
    benchmark::DoNotOptimize(valid);
    if (!valid) {
      state.SkipWithError("terminal path returned no k-anonymous answer");
      return;
    }
  }
}
BENCHMARK(BM_TerminalPathSuppressAll)
    ->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kanon
