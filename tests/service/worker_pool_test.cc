#include "service/worker_pool.h"

#include <chrono>
#include <thread>
#include <vector>

#include "core/anonymity.h"
#include "data/csv_table.h"
#include "fault/fault.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "hypergraph/generators.h"
#include "reductions/matching_to_kanon.h"
#include "util/random.h"

/// \file
/// The worker pool's contract: every admitted job is answered with a
/// valid k-anonymization (or a typed error), repeats are served from
/// the cache, >= 4 requests run in flight on a 4-worker pool, and
/// concurrent execution does not change any per-request answer.

namespace kanon {
namespace {

AnonymizeRequest RequestFor(Table table, size_t k,
                            const std::string& algorithm = "resilient") {
  AnonymizeRequest request;
  request.algorithm = algorithm;
  request.k = k;
  request.table.emplace(std::move(table));
  return request;
}

Table SmallTable(uint64_t seed, uint32_t rows = 12) {
  Rng rng(seed);
  return UniformTable({.num_rows = rows, .num_columns = 4, .alphabet = 3},
                      &rng);
}

/// Theorem 3.1 hard instance: far too big for exact_dp to finish soon,
/// so a job running it stays busy until cancelled.
Table HardTable(uint64_t seed) {
  Rng rng(seed);
  const Hypergraph h = PlantedMatchingHypergraph(
      {.num_vertices = 21, .k = 3, .extra_edges = 6}, &rng);
  return BuildKAnonInstance(h);
}

TEST(WorkerPoolTest, ExecutesJobToValidKAnonymousAnswer) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 2});

  ServiceError error = ServiceError::kNone;
  StatusOr<JobQueue::Ticket> ticket =
      queue.Submit(RequestFor(SmallTable(1), 3), &error);
  ASSERT_TRUE(ticket.ok());
  const AnonymizeResponse response = ticket->result.get();

  ASSERT_TRUE(response.ok()) << response.status;
  EXPECT_EQ(response.id, ticket->id);
  EXPECT_EQ(response.rows, 12u);
  EXPECT_FALSE(response.stage.empty());
  EXPECT_FALSE(response.chain.empty());
  EXPECT_FALSE(response.cache_hit);

  const StatusOr<Table> anonymized = ParseTableCsv(response.anonymized_csv);
  ASSERT_TRUE(anonymized.ok());
  EXPECT_TRUE(IsKAnonymous(*anonymized, 3));
  EXPECT_EQ(anonymized->CountSuppressedCells(), response.cost);
}

TEST(WorkerPoolTest, RepeatRequestServedFromCache) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 2});

  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse cold =
      queue.Submit(RequestFor(SmallTable(2), 3), &error)->result.get();
  const AnonymizeResponse warm =
      queue.Submit(RequestFor(SmallTable(2), 3), &error)->result.get();

  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  // The cached answer is byte-identical to the cold one.
  EXPECT_EQ(warm.cost, cold.cost);
  EXPECT_EQ(warm.stage, cold.stage);
  EXPECT_EQ(warm.anonymized_csv, cold.anonymized_csv);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(queue.metrics().Get(Counter::kCacheServed), 1u);
  EXPECT_EQ(queue.metrics().Get(Counter::kCompleted), 2u);

  // A different k is a different instance: miss.
  const AnonymizeResponse other_k =
      queue.Submit(RequestFor(SmallTable(2), 4), &error)->result.get();
  EXPECT_FALSE(other_k.cache_hit);
}

TEST(WorkerPoolTest, CoresetKnobsKeyTheCacheSeparately) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 1});

  // Large enough that the resolved sample (rate 0.5 -> 40 rows) is a
  // real subsample, so different sampler seeds give different answers.
  const Table table = SmallTable(5, /*rows=*/80);
  const auto submit = [&](uint64_t coreset_seed) {
    AnonymizeRequest request = RequestFor(table, 3, "coreset_mdav");
    request.coreset_rate = 0.5;
    request.coreset_seed = coreset_seed;
    ServiceError error = ServiceError::kNone;
    return queue.Submit(std::move(request), &error)->result.get();
  };

  const AnonymizeResponse cold = submit(1);
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_FALSE(cold.cache_hit);
  const StatusOr<Table> anonymized = ParseTableCsv(cold.anonymized_csv);
  ASSERT_TRUE(anonymized.ok());
  EXPECT_TRUE(IsKAnonymous(*anonymized, 3));

  // Identical knobs: a repeat is served from the cache.
  const AnonymizeResponse warm = submit(1);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.anonymized_csv, cold.anonymized_csv);

  // A different sampler seed is a different computation: it must miss
  // even though table, algorithm name and k all match.
  const AnonymizeResponse reseeded = submit(2);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_FALSE(reseeded.cache_hit);

  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(WorkerPoolTest, NestedWrapperRunsWithAndKeysOnItsShardKnobs) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 1});

  Rng rng(1);
  const Table table = UniformTable(
      {.num_rows = 600, .num_columns = 5, .alphabet = 5}, &rng);
  const auto submit = [&](size_t shards) {
    AnonymizeRequest request = RequestFor(table, 3, "coreset_sharded_mdav");
    request.coreset_rate = 0.5;
    request.shards = shards;
    ServiceError error = ServiceError::kNone;
    return queue.Submit(std::move(request), &error)->result.get();
  };

  // The 300-row sample could feed the default 8 shards; the request
  // asks for 2, and the sharded level inside the coreset one plans 2.
  const AnonymizeResponse two = submit(2);
  ASSERT_TRUE(two.ok()) << two.status;
  EXPECT_FALSE(two.cache_hit);
  EXPECT_EQ(queue.metrics().Get(Counter::kShardsPlanned), 2u);

  // A different shard count is a different computation: it must miss.
  const AnonymizeResponse four = submit(4);
  ASSERT_TRUE(four.ok()) << four.status;
  EXPECT_FALSE(four.cache_hit);
  EXPECT_EQ(queue.metrics().Get(Counter::kShardsPlanned), 6u);

  // Identical knobs: served from the cache.
  EXPECT_TRUE(submit(4).cache_hit);
}

TEST(WorkerPoolTest, DeadlineArtifactsAreNotCachedStructuralOnesAre) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 1});

  // 35 rows: above branch_bound's 28-row structural cap, so an
  // unlimited run deterministically degrades to
  // cluster_greedy+local_search while an expired one degrades to
  // suppress_all.
  AnonymizeRequest request = RequestFor(SmallTable(3, 35), 3);
  request.deadline_ms = 0.001;  // expired on arrival
  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse degraded =
      queue.Submit(std::move(request), &error)->result.get();
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.stage, "suppress_all");
  EXPECT_EQ(degraded.termination, StopReason::kDeadline);
  // The deadline artifact was not cached...
  EXPECT_EQ(cache.stats().size, 0u);

  // ... so an unlimited repeat re-solves (miss) and gets the better
  // heuristic answer; its structural degradation IS deterministic for
  // this instance and is cached.
  const AnonymizeResponse fresh =
      queue.Submit(RequestFor(SmallTable(3, 35), 3), &error)->result.get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.stage, "cluster_greedy+local_search");
  EXPECT_EQ(fresh.termination, StopReason::kBudget);  // declines latched
  EXPECT_LE(fresh.cost, degraded.cost);
  EXPECT_EQ(cache.stats().size, 1u);

  const AnonymizeResponse replay =
      queue.Submit(RequestFor(SmallTable(3, 35), 3), &error)->result.get();
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(replay.stage, "cluster_greedy+local_search");
  EXPECT_EQ(replay.termination, StopReason::kBudget);
  EXPECT_EQ(replay.cost, fresh.cost);
}

TEST(WorkerPoolTest, HeuristicCutByItsDeadlineSliceIsNotCached) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 1});

  // 2048x8: branch_bound declines structurally (a budget latch), then
  // the heuristic's O(n^2 m) scans outrun their half of the 50 ms
  // deadline although the job's own deadline has not tripped yet. The
  // answer is this request's artifact, reported as such. (At 1024 rows
  // the heuristic takes about 45 ms, too close to its 25 ms slice.)
  const auto large = [] {
    Rng rng(17);
    return UniformTable(
        {.num_rows = 2048, .num_columns = 8, .alphabet = 4}, &rng);
  };
  AnonymizeRequest request = RequestFor(large(), 5);
  request.deadline_ms = 50.0;
  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse cut =
      queue.Submit(std::move(request), &error)->result.get();
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut.termination, StopReason::kDeadline) << cut.chain;
  EXPECT_EQ(cache.stats().size, 0u);

  // A repeat without a deadline misses and gets the heuristic's answer.
  const AnonymizeResponse fresh =
      queue.Submit(RequestFor(large(), 5), &error)->result.get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.stage, "cluster_greedy+local_search");
  EXPECT_EQ(fresh.termination, StopReason::kBudget);
  EXPECT_LE(fresh.cost, cut.cost);
}

TEST(WorkerPoolTest, BreakerSkippedAnswersAreNotCached) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache,
                  {.workers = 1,
                   .breaker = {.failure_threshold = 1, .open_ms = 1e9}});

  // An injected `distance.build` fault stops branch_bound's oracle
  // build with kDeadline: a failure that burns its slice opens the
  // breaker. The heuristic answers, and a deadline artifact is not
  // cached.
  ServiceError error = ServiceError::kNone;
  AnonymizeResponse failed;
  {
    FaultPlan plan;
    plan.seed = 5;
    plan.sites.push_back({.site = "distance.build", .first_n = 1});
    const ScopedFaultInjection armed(plan);
    failed =
        queue.Submit(RequestFor(SmallTable(3, 20), 3), &error)->result.get();
  }
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed.chain.rfind("branch_bound(declined:deadline)", 0), 0u)
      << failed.chain;
  EXPECT_EQ(failed.stage, "cluster_greedy+local_search");
  EXPECT_EQ(cache.stats().size, 0u);

  // A 20-row table now skips branch_bound, so the heuristic answers a
  // table branch_bound would have solved: not an answer to replay.
  const AnonymizeResponse skipped =
      queue.Submit(RequestFor(SmallTable(4, 20), 3), &error)->result.get();
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.chain.rfind("branch_bound(skipped:breaker)", 0), 0u)
      << skipped.chain;
  EXPECT_EQ(skipped.stage, "cluster_greedy+local_search");
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(WorkerPoolTest, StructuralDeclinesDoNotOpenTheBreaker) {
  // Three 35-row tables: branch_bound declines each on its 28-row cap.
  // Those declines cost no time and say nothing about branch_bound's
  // health, so a 20-row table after them is still answered by it.
  // open_ms is stretched so the outcome cannot hinge on timing.
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache,
                  {.workers = 1,
                   .breaker = {.failure_threshold = 3, .open_ms = 1e9}});
  ServiceError error = ServiceError::kNone;
  for (const uint64_t seed : {3u, 5u, 7u}) {
    const AnonymizeResponse large =
        queue.Submit(RequestFor(SmallTable(seed, 35), 3), &error)
            ->result.get();
    ASSERT_TRUE(large.ok());
    EXPECT_EQ(large.chain.rfind("branch_bound(declined:budget)", 0), 0u)
        << large.chain;
  }
  const AnonymizeResponse small =
      queue.Submit(RequestFor(SmallTable(4, 20), 3), &error)->result.get();
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.stage, "branch_bound") << small.chain;
  EXPECT_EQ(small.termination, StopReason::kNone);
}

TEST(WorkerPoolTest, FourRequestsInFlightOnFourWorkers) {
  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache, {.workers = 4});

  // Four Theorem 3.1 instances sent to exact_dp with no deadline: each
  // occupies its worker until cancelled.
  ServiceError error = ServiceError::kNone;
  std::vector<JobQueue::Ticket> tickets;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    StatusOr<JobQueue::Ticket> ticket =
        queue.Submit(RequestFor(HardTable(seed), 3, "exact_dp"), &error);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*std::move(ticket));
  }

  // All four jobs get popped (queue drains) while none has completed:
  // that is only possible with four simultaneously in-flight requests.
  for (int spin = 0; queue.depth() > 0 && spin < 2000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.metrics().Get(Counter::kCompleted), 0u);

  // Per-request cancellation reaches the running jobs' RunContexts; the
  // chain still answers each with a valid partition — unless
  // the cancel won the pop-to-run-start race, where the worker answers
  // with the typed cancellation instead (see cancel_race_test).
  for (const JobQueue::Ticket& ticket : tickets) {
    EXPECT_TRUE(queue.Cancel(ticket.id));
  }
  for (JobQueue::Ticket& ticket : tickets) {
    const AnonymizeResponse response = ticket.result.get();
    if (!response.ok()) {
      EXPECT_EQ(response.error, ServiceError::kCancelled);
      continue;
    }
    EXPECT_EQ(response.termination, StopReason::kCancelled);
    EXPECT_EQ(response.stage, "suppress_all");
    const StatusOr<Table> anonymized =
        ParseTableCsv(response.anonymized_csv);
    ASSERT_TRUE(anonymized.ok());
    EXPECT_TRUE(IsKAnonymous(*anonymized, 3));
  }
  EXPECT_EQ(queue.metrics().Get(Counter::kCompleted), 4u);
}

TEST(WorkerPoolTest, ConcurrentExecutionIsDeterministicPerRequest) {
  // Reference answers computed serially, no cache.
  std::vector<AnonymizeRequest> requests;
  for (uint64_t seed = 10; seed < 18; ++seed) {
    requests.push_back(RequestFor(SmallTable(seed, 10 + seed % 4), 3,
                                  seed % 2 == 0 ? "resilient" : "mondrian"));
  }
  std::vector<AnonymizeResponse> expected;
  for (const AnonymizeRequest& request : requests) {
    RunContext ctx;
    expected.push_back(WorkerPool::Execute(request, &ctx, nullptr));
  }

  // The same 8 requests dispatched at once onto 4 workers.
  JobQueue queue(16);
  WorkerPool pool(&queue, /*cache=*/nullptr, {.workers = 4});
  ServiceError error = ServiceError::kNone;
  std::vector<JobQueue::Ticket> tickets;
  for (const AnonymizeRequest& request : requests) {
    StatusOr<JobQueue::Ticket> ticket = queue.Submit(request, &error);
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*std::move(ticket));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const AnonymizeResponse response = tickets[i].result.get();
    ASSERT_TRUE(response.ok()) << response.status;
    EXPECT_EQ(response.cost, expected[i].cost) << i;
    EXPECT_EQ(response.stage, expected[i].stage) << i;
    EXPECT_EQ(response.chain, expected[i].chain) << i;
    EXPECT_EQ(response.anonymized_csv, expected[i].anonymized_csv) << i;
  }
}

TEST(WorkerPoolTest, TransientDispatchFaultsAreRetriedInPlace) {
  FaultPlan plan;
  // The worker dies before running the job twice; the third attempt
  // (the last of the budget) goes through.
  plan.sites.push_back({.site = "worker.dispatch", .first_n = 2});
  ScopedFaultInjection injection(plan);

  JobQueue queue(4);
  ResultCache cache(4);
  WorkerPool pool(&queue, &cache,
                  {.workers = 1,
                   .retry = {.max_attempts = 3,
                             .base_ms = 0.01,
                             .cap_ms = 0.1}});
  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse response =
      queue.Submit(RequestFor(SmallTable(30), 3), &error)->result.get();

  ASSERT_TRUE(response.ok()) << response.status;
  EXPECT_EQ(queue.metrics().Get(Counter::kRetries), 2u);
  EXPECT_EQ(queue.metrics().Get(Counter::kRetriesExhausted), 0u);

  const StatusOr<Table> anonymized = ParseTableCsv(response.anonymized_csv);
  ASSERT_TRUE(anonymized.ok());
  EXPECT_TRUE(IsKAnonymous(*anonymized, 3));
}

TEST(WorkerPoolTest, ExhaustedRetryBudgetIsATypedWorkerFailure) {
  FaultPlan plan;
  plan.sites.push_back({.site = "worker.dispatch", .probability = 1.0});
  ScopedFaultInjection injection(plan);

  JobQueue queue(4);
  WorkerPool pool(&queue, /*cache=*/nullptr,
                  {.workers = 1,
                   .retry = {.max_attempts = 2,
                             .base_ms = 0.01,
                             .cap_ms = 0.1}});
  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse response =
      queue.Submit(RequestFor(SmallTable(31), 3), &error)->result.get();

  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error, ServiceError::kWorkerFailure);
  EXPECT_EQ(response.status.code(), StatusCode::kInternal);
  EXPECT_EQ(queue.metrics().Get(Counter::kRetries), 1u);
  EXPECT_EQ(queue.metrics().Get(Counter::kRetriesExhausted), 1u);
}

TEST(WorkerPoolTest, LostDeliveryDiscardsTheResultAndRetries) {
  FaultPlan plan;
  // The worker computes an answer, then dies before delivering it: the
  // result must be discarded and the job re-run, not half-delivered.
  plan.sites.push_back({.site = "worker.deliver", .first_n = 1});
  ScopedFaultInjection injection(plan);

  JobQueue queue(4);
  ResultCache cache(4);
  WorkerPool pool(&queue, &cache,
                  {.workers = 1,
                   .retry = {.max_attempts = 3,
                             .base_ms = 0.01,
                             .cap_ms = 0.1}});
  ServiceError error = ServiceError::kNone;
  const AnonymizeResponse response =
      queue.Submit(RequestFor(SmallTable(32), 3), &error)->result.get();

  ASSERT_TRUE(response.ok()) << response.status;
  EXPECT_EQ(queue.metrics().Get(Counter::kRetries), 1u);
  EXPECT_EQ(queue.metrics().Get(Counter::kCompleted), 1u);
}

TEST(RetryPolicyTest, BackoffStartsAtBaseAndStaysWithinBounds) {
  const RetryPolicy policy{.max_attempts = 5,
                           .base_ms = 1.0,
                           .cap_ms = 50.0};
  Rng rng(11);
  // First wait is exactly the base (prev = 0 pins the window to [base,
  // base]); later waits are decorrelated but always in [base, cap].
  double prev = NextBackoffMillis(policy, 0.0, rng);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (int i = 0; i < 64; ++i) {
    prev = NextBackoffMillis(policy, prev, rng);
    EXPECT_GE(prev, policy.base_ms);
    EXPECT_LE(prev, policy.cap_ms);
  }
}

TEST(RetryPolicyTest, ScheduleIsDeterministicPerJob) {
  const RetryPolicy policy{.max_attempts = 5,
                           .base_ms = 1.0,
                           .cap_ms = 50.0};
  EXPECT_EQ(RetrySeedForJob(7), RetrySeedForJob(7));
  EXPECT_NE(RetrySeedForJob(7), RetrySeedForJob(8));

  Rng a(RetrySeedForJob(7));
  Rng b(RetrySeedForJob(7));
  double prev_a = 0.0;
  double prev_b = 0.0;
  for (int i = 0; i < 16; ++i) {
    prev_a = NextBackoffMillis(policy, prev_a, a);
    prev_b = NextBackoffMillis(policy, prev_b, b);
    EXPECT_DOUBLE_EQ(prev_a, prev_b);
  }
}

TEST(WorkerPoolTest, CancelledBeforeRunIsATypedError) {
  JobQueue queue(4);
  ServiceError error = ServiceError::kNone;
  // No pool yet: the job sits queued while we cancel it.
  StatusOr<JobQueue::Ticket> ticket =
      queue.Submit(RequestFor(SmallTable(5), 3), &error);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(queue.Cancel(ticket->id));

  WorkerPool pool(&queue, /*cache=*/nullptr, {.workers = 1});
  const AnonymizeResponse response = ticket->result.get();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error, ServiceError::kCancelled);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(queue.metrics().Get(Counter::kCancelled), 1u);
}

}  // namespace
}  // namespace kanon
