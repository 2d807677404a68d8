#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/csv_table.h"
#include "core/anonymity.h"
#include "data/generators/uniform.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "service/journal.h"
#include "service/overload/overload.h"
#include "service/server.h"
#include "service/worker_pool.h"
#include "util/random.h"

/// \file
/// End-to-end contracts of the overload plane threaded through the
/// service: a browned-out result never answers a full-fidelity request
/// (the cache-key regression the brownout salt exists for), deadline
/// reconciliation rejects typed before any solve work, retry-budget
/// exhaustion degrades to a valid terminal answer, and the SIGTERM
/// drain + journal replay paths stay typed and balanced while the
/// plane is actively shedding and degrading.

namespace kanon {
namespace {

Table SmallTable(uint64_t seed, uint32_t rows = 12) {
  Rng rng(seed);
  return UniformTable({.num_rows = rows, .num_columns = 4, .alphabet = 3},
                      &rng);
}

AnonymizeRequest RequestFor(Table table, size_t k,
                            const std::string& algorithm) {
  AnonymizeRequest request;
  request.algorithm = algorithm;
  request.k = k;
  request.table.emplace(std::move(table));
  return request;
}

FaultPlan BrownoutEveryJob() {
  FaultPlan plan;
  plan.seed = 7;
  plan.sites.push_back({.site = "overload.brownout", .probability = 1.0});
  return plan;
}

// ---------------------------------------------------------------------
// Cache regression: the brownout salt in the knobs fingerprint.

TEST(OverloadIntegrationTest, BrownedOutResultNeverAnswersFullFidelity) {
  ServiceOptions options;
  options.workers = 1;
  options.overload_enabled = true;
  AnonymizationService service(options);
  const Table table = SmallTable(1);

  // Job 1, forced brownout: mdav is dispatched as sharded_mdav and the
  // response says so.
  AnonymizeResponse degraded;
  {
    ScopedFaultInjection armed(BrownoutEveryJob());
    degraded = service.Handle(RequestFor(table, 3, "mdav"));
  }
  ASSERT_TRUE(degraded.ok()) << degraded.status;
  EXPECT_EQ(degraded.algorithm, "mdav");
  EXPECT_EQ(degraded.effective_algorithm, "sharded_mdav");
  EXPECT_EQ(degraded.brownout, 1);
  EXPECT_FALSE(degraded.cache_hit);

  // The degraded entry sits in the cache under (sharded_mdav + brownout
  // salt). Neither full-fidelity spelling of this instance may hit it:
  // not the original request, and not even an explicit request for the
  // same effective backend.
  const AnonymizeResponse requested =
      service.Handle(RequestFor(table, 3, "mdav"));
  ASSERT_TRUE(requested.ok()) << requested.status;
  EXPECT_FALSE(requested.cache_hit);
  EXPECT_EQ(requested.brownout, 0);
  EXPECT_TRUE(requested.effective_algorithm.empty());

  const AnonymizeResponse effective =
      service.Handle(RequestFor(table, 3, "sharded_mdav"));
  ASSERT_TRUE(effective.ok()) << effective.status;
  EXPECT_FALSE(effective.cache_hit);
  EXPECT_EQ(effective.brownout, 0);

  // A repeat under the same brownout, though, is the same degraded
  // instance — that one the cache may (and does) answer.
  AnonymizeResponse repeat;
  {
    ScopedFaultInjection armed(BrownoutEveryJob());
    repeat = service.Handle(RequestFor(table, 3, "mdav"));
  }
  ASSERT_TRUE(repeat.ok()) << repeat.status;
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.brownout, 1);
  EXPECT_EQ(repeat.cost, degraded.cost);

  EXPECT_GE(service.Stats().overload_brownouts, 2u);
}

// ---------------------------------------------------------------------
// Deadline reconciliation at dispatch.

TEST(OverloadIntegrationTest, InfeasibleDeadlineIsRejectedTyped) {
  OverloadControl overload;
  // Teach the estimator that mdav takes ~300ms (optimistic bound 256ms).
  overload.RecordOutcome("mdav", 300.0, true, StopReason::kNone, false);

  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache,
                  {.workers = 1, .overload = &overload});

  AnonymizeRequest request = RequestFor(SmallTable(2), 3, "mdav");
  request.deadline_ms = 60.0;  // cannot fit 256ms, even optimistically
  ServiceError error = ServiceError::kNone;
  StatusOr<JobQueue::Ticket> ticket =
      queue.Submit(std::move(request), &error);
  ASSERT_TRUE(ticket.ok());
  const AnonymizeResponse response = ticket->result.get();

  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error, ServiceError::kDeadlineInfeasible);
  EXPECT_TRUE(response.anonymized_csv.empty());
  EXPECT_EQ(pool.counters().deadline_infeasible, 1u);
  EXPECT_EQ(overload.counters().deadline_infeasible, 1u);

  // Without a deadline the same instance sails through: the estimate
  // gates deadlines, not admission.
  StatusOr<JobQueue::Ticket> open =
      queue.Submit(RequestFor(SmallTable(2), 3, "mdav"), &error);
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open->result.get().ok());
}

// ---------------------------------------------------------------------
// Retry-budget exhaustion degrades to the terminal stage.

TEST(OverloadIntegrationTest, DrainedRetryBudgetDegradesToTerminal) {
  OverloadOptions options;
  options.retry_budget.initial = 0.0;  // dry from the start
  options.retry_budget.ratio = 0.0;
  OverloadControl overload(options);

  JobQueue queue(8);
  ResultCache cache(8);
  WorkerPool pool(&queue, &cache,
                  {.workers = 1, .overload = &overload});

  FaultPlan plan;
  plan.seed = 3;
  plan.sites.push_back({.site = "worker.dispatch", .first_n = 1});
  ScopedFaultInjection armed(plan);

  ServiceError error = ServiceError::kNone;
  StatusOr<JobQueue::Ticket> ticket =
      queue.Submit(RequestFor(SmallTable(3), 3, "mdav"), &error);
  ASSERT_TRUE(ticket.ok());
  const AnonymizeResponse response = ticket->result.get();

  // Still a valid answer — maximally suppressed — with the budget
  // exhaustion recorded in the chain, not an amplifying re-run.
  ASSERT_TRUE(response.ok()) << response.status;
  EXPECT_EQ(response.algorithm, "mdav");
  EXPECT_EQ(response.effective_algorithm, "suppress_all");
  EXPECT_EQ(response.chain,
            "mdav(declined:retry_budget)->suppress_all(ok)");
  const StatusOr<Table> anonymized = ParseTableCsv(response.anonymized_csv);
  ASSERT_TRUE(anonymized.ok());
  EXPECT_TRUE(IsKAnonymous(*anonymized, 3));

  EXPECT_EQ(pool.counters().retry_budget_degraded, 1u);
  EXPECT_EQ(pool.counters().retries_attempted, 0u);
  EXPECT_EQ(overload.counters().retry_denied, 1u);

  // The per-request artifact must not have been cached: a clean repeat
  // recomputes at full fidelity.
  FaultRegistry::Instance().Disarm();
  StatusOr<JobQueue::Ticket> clean =
      queue.Submit(RequestFor(SmallTable(3), 3, "mdav"), &error);
  ASSERT_TRUE(clean.ok());
  const AnonymizeResponse recomputed = clean->result.get();
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed.cache_hit);
  EXPECT_TRUE(recomputed.effective_algorithm.empty());
}

// ---------------------------------------------------------------------
// SIGTERM drain under active overload (the kanond SIGTERM handler maps
// onto NetServer::RequestDrain).

TEST(OverloadIntegrationTest, DrainUnderActiveOverloadKeepsTheLedger) {
  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.overload_enabled = true;
  AnonymizationService service(service_options);
  NetServerOptions net;
  net.port = 0;
  NetServer server(service, net);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&server] { server.Run(); });

  // The plane is actively shedding and degrading while the burst lands
  // and the drain runs.
  FaultPlan plan;
  plan.seed = 11;
  plan.sites.push_back({.site = "overload.shed", .probability = 0.3});
  plan.sites.push_back({.site = "overload.brownout", .probability = 0.5});
  ScopedFaultInjection armed(plan);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr uint64_t kJobs = 12;
  for (uint64_t seq = 1; seq <= kJobs; ++seq) {
    NetRequest request;
    request.verb = NetVerb::kAnonymize;
    request.client_seq = seq;
    request.request.algorithm = "mdav";
    request.request.k = 3;
    request.request.csv_text = TableToCsv(SmallTable(seq));
    ASSERT_TRUE(client.Send(request).ok());
  }
  server.RequestDrain();

  // Every admitted response still arrives — valid or typed, never a
  // hang, never a torn frame — then the connection closes cleanly.
  size_t answered = 0;
  size_t shed_typed = 0;
  size_t browned_out = 0;
  for (;;) {
    const StatusOr<NetResponse> response = client.Receive(30000.0);
    if (!response.ok()) {
      ASSERT_EQ(response.status().code(), StatusCode::kUnavailable)
          << response.status().ToString();
      break;
    }
    if (response->verb == NetVerb::kShutdown) continue;  // drain notice
    ++answered;
    if (response->ok()) {
      EXPECT_FALSE(response->csv.empty());
      if (response->brownout > 0) {
        ++browned_out;
        EXPECT_FALSE(response->effective_algorithm.empty());
      }
    } else {
      EXPECT_FALSE(response->error_name.empty());
      if (response->error_name == "shed_overload") ++shed_typed;
    }
  }
  serving.join();

  // The drain ledger closes: nothing admitted is both undelivered and
  // undropped. The client also counts typed admission rejections (sheds,
  // and shutting_down once the drain began), which the server answers
  // without submitting a job.
  const NetServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs_submitted,
            stats.responses_delivered + stats.responses_dropped);
  EXPECT_EQ(answered, stats.responses_delivered + stats.jobs_rejected);

  service.Shutdown();
  // Typed sheds the client saw are a subset of the plane's shed count
  // (a drain may drop deliveries, never invent them).
  const ServiceStats service_stats = service.Stats();
  EXPECT_GE(service_stats.overload_shed, shed_typed);
  EXPECT_GE(service_stats.overload_brownouts, browned_out);
}

// ---------------------------------------------------------------------
// Journal replay while the overload plane is degrading resubmissions.

TEST(OverloadIntegrationTest, JournalReplayUnderActiveOverloadIsTyped) {
  const std::string path = ::testing::TempDir() +
                           "overload_replay_journal.log";
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.Open().ok());
    Job done_job;
    done_job.id = 1;
    done_job.request = RequestFor(SmallTable(21), 3, "mdav");
    done_job.request.csv_text = TableToCsv(*done_job.request.table);
    journal.OnAdmit(done_job);            // finished before the crash
    journal.OnStart(1);
    AnonymizeResponse done;
    journal.OnDone(1, done);
    Job pending_job;
    pending_job.id = 2;
    pending_job.request = RequestFor(SmallTable(22), 3, "mdav");
    pending_job.request.csv_text = TableToCsv(*pending_job.request.table);
    journal.OnAdmit(pending_job);         // never started -> resubmitted
    Job started_job;
    started_job.id = 3;
    started_job.request = RequestFor(SmallTable(23), 3, "mdav");
    started_job.request.csv_text = TableToCsv(*started_job.request.table);
    journal.OnAdmit(started_job);         // started, no done -> interrupted
    journal.OnStart(3);
  }

  StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();

  ServiceOptions options;
  options.workers = 1;
  options.overload_enabled = true;
  AnonymizationService service(options);

  // Replay with every resubmission forced through the brownout ladder.
  ScopedFaultInjection armed(BrownoutEveryJob());
  const JournalReplayReport report =
      ApplyReplayToService(std::move(*replay), service);

  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.resubmitted, 1u);
  EXPECT_EQ(report.interrupted, 1u);
  for (const std::string& line : report.lines) {
    EXPECT_TRUE(line.rfind("ok verb=replay", 0) == 0 ||
                line.rfind("error verb=replay", 0) == 0)
        << line;
  }
  // The resubmission really went through the overload plane.
  EXPECT_GE(service.Stats().overload_brownouts, 1u);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace kanon
