#include "service/watchdog.h"

#include <memory>

#include "data/csv_table.h"
#include "data/generators/uniform.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "service/worker_pool.h"
#include "util/random.h"

/// \file
/// Watchdog semantics: progress (heartbeats + charged nodes) resets the
/// stall clock, a flat-lined job is preempted exactly once, unwatched
/// jobs are invisible, and through the pool an injected `worker.stall`
/// becomes one typed watchdog_preempted response — while the stall site
/// never even arms on a pool without a watchdog.

namespace kanon {
namespace {

/// A scan interval long enough that the background loop never fires
/// during a test: scans are driven manually through ScanOnce().
WatchdogOptions ManualScan(double stall_ms) {
  return WatchdogOptions{.scan_interval_ms = 1e9, .stall_ms = stall_ms};
}

TEST(WatchdogTest, FlatProgressIsPreemptedExactlyOnce) {
  Watchdog watchdog(ManualScan(/*stall_ms=*/0.0));
  auto ctx = std::make_shared<RunContext>();
  watchdog.Watch(1, ctx);
  EXPECT_EQ(watchdog.watched(), 1u);

  // No progress since Watch() and stall_ms=0: the first scan preempts.
  watchdog.ScanOnce();
  EXPECT_TRUE(ctx->preempt_requested());
  EXPECT_TRUE(ctx->cancel_requested());
  EXPECT_EQ(watchdog.preemptions(), 1u);

  // One-shot: further scans do not preempt the same entry again.
  watchdog.ScanOnce();
  watchdog.ScanOnce();
  EXPECT_EQ(watchdog.preemptions(), 1u);
}

TEST(WatchdogTest, AdvancingProgressResetsTheStallClock) {
  Watchdog watchdog(ManualScan(/*stall_ms=*/0.0));
  auto ctx = std::make_shared<RunContext>();
  watchdog.Watch(7, ctx);

  // Node charges and heartbeat polls both count as progress; as long as
  // either advances between scans, even a zero stall bound never trips.
  for (int i = 0; i < 5; ++i) {
    ctx->ChargeNodes();
    watchdog.ScanOnce();
    EXPECT_FALSE(ctx->preempt_requested()) << "scan " << i;
  }
  for (int i = 0; i < 5; ++i) {
    (void)ctx->ShouldStop();  // bumps heartbeats
    watchdog.ScanOnce();
    EXPECT_FALSE(ctx->preempt_requested()) << "scan " << i;
  }
  EXPECT_EQ(watchdog.preemptions(), 0u);

  // The moment progress flat-lines, the next scan trips.
  watchdog.ScanOnce();
  EXPECT_TRUE(ctx->preempt_requested());
  EXPECT_EQ(watchdog.preemptions(), 1u);
}

TEST(WatchdogTest, UnwatchedJobsAreInvisible) {
  Watchdog watchdog(ManualScan(/*stall_ms=*/0.0));
  auto ctx = std::make_shared<RunContext>();
  watchdog.Watch(3, ctx);
  watchdog.Unwatch(3);
  EXPECT_EQ(watchdog.watched(), 0u);

  watchdog.ScanOnce();
  EXPECT_FALSE(ctx->preempt_requested());
  EXPECT_EQ(watchdog.preemptions(), 0u);
}

AnonymizeRequest SmallRequest(uint64_t seed) {
  Rng rng(seed);
  AnonymizeRequest request;
  request.algorithm = "resilient";
  request.k = 2;
  request.table.emplace(UniformTable(
      {.num_rows = 8, .num_columns = 3, .alphabet = 3}, &rng));
  request.emit_csv = true;
  return request;
}

TEST(WatchdogPoolTest, InjectedStallBecomesOneTypedPreemptedResponse) {
  FaultPlan plan;
  plan.sites.push_back({.site = "worker.stall", .first_n = 1});
  ScopedFaultInjection injection(plan);

  Watchdog watchdog(
      WatchdogOptions{.scan_interval_ms = 5.0, .stall_ms = 100.0});
  JobQueue queue(8);
  WorkerPoolOptions options;
  options.workers = 1;
  options.watchdog = &watchdog;
  WorkerPool pool(&queue, /*cache=*/nullptr, options);

  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse stalled =
      queue.Submit(SmallRequest(1), &error)->result.get();
  EXPECT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.error, ServiceError::kWatchdogPreempted);
  EXPECT_NE(stalled.status.message().find("progress stall"),
            std::string::npos)
      << stalled.status.message();

  // The fault budget (first_n=1) is spent: the next job sails through
  // and must not be preempted — it heartbeats normally.
  const AnonymizeResponse healthy =
      queue.Submit(SmallRequest(2), &error)->result.get();
  EXPECT_TRUE(healthy.ok()) << healthy.status;

  queue.Close();
  pool.Join();
  EXPECT_EQ(queue.metrics().Get(Counter::kWatchdogPreempted), 1u);
  EXPECT_EQ(watchdog.preemptions(), 1u);
}

TEST(WatchdogPoolTest, StallSiteNeverArmsWithoutAWatchdog) {
  FaultPlan plan;
  plan.sites.push_back({.site = "worker.stall", .first_n = 1});
  ScopedFaultInjection injection(plan);

  JobQueue queue(8);
  WorkerPool pool(&queue, /*cache=*/nullptr, {.workers = 1});

  // Without a watchdog nothing could ever break the stall loop, so the
  // pool must not even poll the site; the job completes normally.
  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse response =
      queue.Submit(SmallRequest(3), &error)->result.get();
  EXPECT_TRUE(response.ok()) << response.status;

  for (const FaultSiteSnapshot& site :
       FaultRegistry::Instance().Snapshot()) {
    if (site.name == "worker.stall") {
      EXPECT_EQ(site.hits, 0u);
      EXPECT_EQ(site.fires, 0u);
    }
  }
  queue.Close();
  pool.Join();
}

}  // namespace
}  // namespace kanon
