#include "service/server.h"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/anonymity.h"
#include "data/csv_table.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/string_util.h"

/// \file
/// End-to-end service tests over the line protocol: a scripted session
/// with a cold solve, a cache-served repeat at lower latency, typed
/// rejections that do not stop the serving loop, and shutdown.

namespace kanon {
namespace {

/// Distinct rows, inline-encoded. 14 rows: the exact_dp stage completes
/// in tens of milliseconds (2^n DP), so a cold solve does measurable
/// work while staying fast enough for the sanitizer suite. 30+ rows:
/// above every exact stage's structural cap.
std::string BigInline(int rows = 14) {
  std::string csv = "age,zip";
  for (int i = 0; i < rows; ++i) {
    csv += ";" + std::to_string(30 + i / 2) + ",1000" + std::to_string(i);
  }
  return csv;
}

/// Extracts the value of `key` from a "k1=v1 k2=v2 ..." response line.
std::string Field(const std::string& line, const std::string& key) {
  for (const std::string& token : Split(line, ' ')) {
    if (StartsWith(token, key + "=")) {
      return token.substr(key.size() + 1);
    }
  }
  return "";
}

Table TableFromInline(std::string inline_csv) {
  for (char& c : inline_csv) {
    if (c == ';') c = '\n';
  }
  StatusOr<Table> table = ParseTableCsv(inline_csv);
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

TEST(ServerTest, ScriptedSessionColdHitErrorStatsShutdown) {
  AnonymizationService service(
      {.workers = 2, .queue_capacity = 8, .cache_capacity = 8});

  const std::string anonymize =
      "anonymize algo=resilient k=4 csv=" + BigInline();
  std::istringstream in(anonymize + "\n" +        // cold
                        anonymize + "\n" +        // repeat -> cache
                        "stats\n" +               //
                        "anonymize algo=nope k=2 csv=a;1;2\n" +  // typed error
                        anonymize + "\n" +        // still serving
                        "shutdown\n" +            //
                        "anonymize algo=resilient k=2 csv=a;1;2\n");
  std::ostringstream out;
  const size_t served = ServeLines(service, in, out);
  EXPECT_EQ(served, 6u);  // the post-shutdown line is never read

  const std::vector<std::string> lines = [&] {
    std::vector<std::string> all = Split(out.str(), '\n');
    all.pop_back();  // trailing newline -> empty tail
    return all;
  }();
  ASSERT_EQ(lines.size(), 6u);

  // Cold solve: a verified k-anonymous answer.
  EXPECT_TRUE(StartsWith(lines[0], "ok verb=anonymize"));
  EXPECT_EQ(Field(lines[0], "cache"), "miss");
  EXPECT_EQ(Field(lines[0], "termination"), "completed");
  const Table anonymized = TableFromInline(Field(lines[0], "csv"));
  EXPECT_TRUE(IsKAnonymous(anonymized, 4));

  // Identical repeat: answered from cache, same answer, lower latency.
  EXPECT_EQ(Field(lines[1], "cache"), "hit");
  EXPECT_EQ(Field(lines[1], "csv"), Field(lines[0], "csv"));
  EXPECT_EQ(Field(lines[1], "cost"), Field(lines[0], "cost"));
  double cold_ms = 0.0, hit_ms = 0.0;
  ASSERT_TRUE(ParseDouble(Field(lines[0], "run_ms"), &cold_ms));
  ASSERT_TRUE(ParseDouble(Field(lines[1], "run_ms"), &hit_ms));
  EXPECT_LT(hit_ms, cold_ms);

  // stats reflects exactly one hit and one miss.
  EXPECT_TRUE(StartsWith(lines[2], "ok verb=stats"));
  EXPECT_EQ(Field(lines[2], "cache_hits"), "1");
  EXPECT_EQ(Field(lines[2], "cache_misses"), "1");
  EXPECT_EQ(Field(lines[2], "accepted"), "2");

  // The malformed request is a typed rejection...
  EXPECT_TRUE(StartsWith(lines[3], "error verb=anonymize"));
  EXPECT_EQ(Field(lines[3], "code"), "NOT_FOUND");
  EXPECT_EQ(Field(lines[3], "error"), "unknown_algorithm");

  // ... and the daemon keeps serving: the next request hits the cache.
  EXPECT_TRUE(StartsWith(lines[4], "ok verb=anonymize"));
  EXPECT_EQ(Field(lines[4], "cache"), "hit");

  EXPECT_EQ(lines[5], "ok verb=shutdown");
}

TEST(ServerTest, HandleRejectsOversizedKWithTypedError) {
  AnonymizationService service({.workers = 1});
  AnonymizeRequest request;
  request.algorithm = "resilient";
  request.k = 10;
  request.csv_text = "a\n1\n2\n";
  const AnonymizeResponse response = service.Handle(std::move(request));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error, ServiceError::kBadParameter);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, HandleParsesInlineCsvAndAnswers) {
  AnonymizationService service({.workers = 1});
  AnonymizeRequest request;
  request.algorithm = "resilient";
  request.k = 2;
  request.csv_text = "age\n30\n30\n31\n31\n";
  const AnonymizeResponse response = service.Handle(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status;
  EXPECT_EQ(response.rows, 4u);
  EXPECT_EQ(response.cost, 0u);  // already 2-anonymous
}

TEST(ServerTest, MalformedProtocolLinesAreTypedAndNonFatal) {
  AnonymizationService service({.workers = 1});
  bool shutdown = false;

  std::string line = HandleLine(service, "anonymize k=abc csv=a;1", &shutdown);
  EXPECT_TRUE(StartsWith(line, "error "));
  EXPECT_EQ(Field(line, "error"), "bad_parameter");

  line = HandleLine(service, "anonymize wat", &shutdown);
  EXPECT_EQ(Field(line, "error"), "malformed_line");
  EXPECT_EQ(Field(line, "code"), "INVALID_ARGUMENT");

  line = HandleLine(service, "anonymize bad_key=1 csv=a;1", &shutdown);
  EXPECT_EQ(Field(line, "error"), "malformed_line");

  line = HandleLine(service, "anonymize algo=resilient k=2 csv=a;1;\"2",
                    &shutdown);
  EXPECT_EQ(Field(line, "error"), "table_parse_error");
  EXPECT_EQ(Field(line, "code"), "PARSE_ERROR");

  line = HandleLine(service, "anonymize algo=resilient k=2 file=/nope.csv",
                    &shutdown);
  EXPECT_EQ(Field(line, "error"), "table_not_found");
  EXPECT_EQ(Field(line, "code"), "NOT_FOUND");

  EXPECT_FALSE(shutdown);
  // The service survived all of the above.
  line = HandleLine(service, "anonymize algo=resilient k=2 csv=a;1;1",
                    &shutdown);
  EXPECT_TRUE(StartsWith(line, "ok "));
}

TEST(ServerTest, NearZeroDeadlineDegradesToSuppressAllNotError) {
  AnonymizationService service({.workers = 1});
  bool shutdown = false;
  const std::string line = HandleLine(
      service,
      "anonymize algo=resilient k=2 deadline_ms=0.001 csv=" +
          BigInline(/*rows=*/30),
      &shutdown);
  EXPECT_TRUE(StartsWith(line, "ok "));
  EXPECT_EQ(Field(line, "stage"), "suppress_all");
  EXPECT_EQ(Field(line, "termination"), "deadline");
  const Table anonymized = TableFromInline(Field(line, "csv"));
  EXPECT_TRUE(IsKAnonymous(anonymized, 2));
}

TEST(ServerTest, EmitZeroOmitsThePayload) {
  AnonymizationService service({.workers = 1});
  bool shutdown = false;
  const std::string line = HandleLine(
      service, "anonymize algo=resilient k=2 emit=0 csv=a;1;1", &shutdown);
  EXPECT_TRUE(StartsWith(line, "ok "));
  EXPECT_EQ(Field(line, "csv"), "");
  EXPECT_EQ(Field(line, "cost"), "0");
}

TEST(ServerTest, StatsCountsRejections) {
  AnonymizationService service({.workers = 1});
  AnonymizeRequest request;
  request.k = 99;
  request.csv_text = "a\n1\n";
  (void)service.Handle(std::move(request));  // invalid k; never admitted

  // Validation failures are not queue rejections; both counters exist.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.counters[Counter::kAccepted], 0u);
  EXPECT_EQ(stats.counters[Counter::kRejected], 0u);
  EXPECT_EQ(stats.workers, 1u);
}

TEST(ServerTest, WaitZeroAnswersAtAdmission) {
  AnonymizationService service(
      {.workers = 1, .queue_capacity = 8, .cache_capacity = 8});
  bool shutdown = false;
  const std::string response = HandleLine(
      service,
      "anonymize algo=resilient k=2 wait=0 csv=" + BigInline(6),
      &shutdown);
  EXPECT_TRUE(StartsWith(response, "ok verb=anonymize id=")) << response;
  EXPECT_NE(response.find("queued=1"), std::string::npos) << response;
  // The fire-and-forget job still runs to completion in the background.
  service.Shutdown();
  EXPECT_EQ(service.Stats().counters[Counter::kCompleted], 1u);
}

TEST(ServerTest, StatsLineCarriesRobustnessCounters) {
  AnonymizationService service({.workers = 1});
  bool shutdown = false;
  const std::string stats = HandleLine(service, "stats", &shutdown);
  const std::vector<std::string> tokens = Split(stats, ' ');
  for (const CounterKey& key : kCounterKeys) {
    const std::string prefix = std::string(key.name) + "=";
    size_t found = 0;
    for (const std::string& token : tokens) {
      if (!StartsWith(token, prefix)) continue;
      ++found;
      long long value = -1;
      EXPECT_TRUE(ParseInt(token.substr(prefix.size()), &value) &&
                  value >= 0)
          << token << " in: " << stats;
    }
    EXPECT_EQ(found, 1u) << key.name << " in: " << stats;
  }
  EXPECT_EQ(Field(stats, "breakers"), "-");  // no stage has run yet
}

TEST(ServerTest, CoresetAndShardCountersArePerService) {
  std::string csv = "a,b,c";
  Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    csv += ";" + std::to_string(rng.Uniform(4)) + "," +
           std::to_string(rng.Uniform(4)) + "," +
           std::to_string(rng.Uniform(4));
  }
  bool shutdown = false;
  AnonymizationService a({.workers = 1});
  for (const char* algo : {"coreset_mdav", "sharded_mdav"}) {
    const std::string line = HandleLine(
        a, std::string("anonymize algo=") + algo + " k=3 csv=" + csv,
        &shutdown);
    ASSERT_TRUE(StartsWith(line, "ok verb=anonymize")) << line;
  }
  const std::string a_stats = HandleLine(a, "stats", &shutdown);
  EXPECT_EQ(Field(a_stats, "coreset_samples"), "1") << a_stats;
  EXPECT_EQ(Field(a_stats, "shard_plans"), "1") << a_stats;

  // A second stack in the same process counts only its own work.
  AnonymizationService b({.workers = 1});
  const std::string b_stats = HandleLine(b, "stats", &shutdown);
  EXPECT_EQ(Field(b_stats, "coreset_samples"), "0") << b_stats;
  EXPECT_EQ(Field(b_stats, "shard_plans"), "0") << b_stats;
}

TEST(ServerTest, JournalReplayResubmitsPendingAndMarksInterrupted) {
  const std::string path = ::testing::TempDir() + "kanon_server_replay_" +
                           std::to_string(::getpid()) + ".journal";
  ::unlink(path.c_str());
  {
    // Journal of a previous "incarnation": job 1 never started, job 2
    // was on a worker at the crash, job 3 finished cleanly.
    JobJournal journal(path);
    for (uint64_t id = 1; id <= 3; ++id) {
      Job job;
      job.id = id;
      job.request.algorithm = "resilient";
      job.request.k = 2;
      job.request.csv_text = "a,b\n1,2\n1,2\n3,4\n3,4\n";
      journal.OnAdmit(job);
    }
    journal.OnStart(2);
    journal.OnStart(3);
    AnonymizeResponse done;
    journal.OnDone(3, done);
  }

  AnonymizationService service({.workers = 1});
  const StatusOr<JournalReplayReport> report =
      ReplayJournalIntoService(path, service);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->resubmitted, 1u);
  EXPECT_EQ(report->interrupted, 1u);
  EXPECT_EQ(report->completed, 1u);
  EXPECT_EQ(report->torn_records, 0u);

  ASSERT_EQ(report->lines.size(), 2u);
  EXPECT_TRUE(StartsWith(report->lines[0], "ok verb=replay old_id=1"))
      << report->lines[0];
  EXPECT_NE(report->lines[0].find("cost="), std::string::npos);
  EXPECT_TRUE(StartsWith(report->lines[1], "error verb=replay old_id=2"))
      << report->lines[1];
  EXPECT_NE(report->lines[1].find("error=interrupted"), std::string::npos)
      << report->lines[1];

  EXPECT_EQ(service.Stats().counters[Counter::kJournalReplays], 2u);
  ::unlink(path.c_str());
}

TEST(ServerTest, JournalReplayedCoresetJobAnswersTheLiveCost) {
  Rng rng(1);
  AnonymizeRequest request;
  request.algorithm = "coreset_mdav";
  request.k = 3;
  request.coreset_rate = 0.1;
  request.coreset_seed = 7;
  request.csv_text = TableToCsv(UniformTable(
      {.num_rows = 200, .num_columns = 4, .alphabet = 5}, &rng));
  AnonymizationService live({.workers = 1});
  const AnonymizeResponse live_answer = live.Handle(request);
  ASSERT_TRUE(live_answer.ok()) << live_answer.status;
  // The knobs matter on this instance: default knobs answer differently.
  AnonymizeRequest defaults = request;
  defaults.coreset_rate = 0.0;
  defaults.coreset_seed = 0;
  ASSERT_NE(live.Handle(defaults).cost, live_answer.cost);

  const std::string path = ::testing::TempDir() + "kanon_server_knobs_" +
                           std::to_string(::getpid()) + ".journal";
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    Job job;
    job.id = 1;
    job.request = request;
    journal.OnAdmit(job);
  }
  AnonymizationService service({.workers = 1});
  const StatusOr<JournalReplayReport> report =
      ReplayJournalIntoService(path, service);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->lines.size(), 1u);
  EXPECT_TRUE(StartsWith(report->lines[0], "ok verb=replay old_id=1"))
      << report->lines[0];
  EXPECT_EQ(Field(report->lines[0], "cost"),
            std::to_string(live_answer.cost))
      << report->lines[0];
  ::unlink(path.c_str());
}

TEST(ServerTest, CorruptJournalIsATypedReplayRefusal) {
  const std::string path = ::testing::TempDir() + "kanon_server_corrupt_" +
                           std::to_string(::getpid()) + ".journal";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "deadbeefdeadbeef admit 1 algo=resilient k=2 csv=a;1;1\n"
        << "0000000000000000 done 1 ok\n";
  }
  AnonymizationService service({.workers = 1});
  const StatusOr<JournalReplayReport> report =
      ReplayJournalIntoService(path, service);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kParseError);
  ::unlink(path.c_str());
}

TEST(ServerTest, OversizedLineIsATypedErrorAndServingContinues) {
  AnonymizationService service({.workers = 1});
  // A line past kMaxProtocolLineBytes must be discarded *unparsed* and
  // answered with the typed line_too_long error — acting on a silently
  // truncated request would anonymize the wrong table.
  std::string huge = "anonymize algo=resilient k=2 csv=a";
  huge.append(kMaxProtocolLineBytes, ';');
  std::istringstream in(huge + "\n" +
                        "anonymize algo=resilient k=2 csv=a;1;1;2;2\n");
  std::ostringstream out;
  const size_t served = ServeLines(service, in, out);
  EXPECT_EQ(served, 2u);
  const std::vector<std::string> lines = Split(out.str(), '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(StartsWith(lines[0], "error verb=-"));
  EXPECT_EQ(Field(lines[0], "error"), "line_too_long");
  EXPECT_EQ(Field(lines[0], "code"), "PARSE_ERROR");
  // The loop survived and the next request was served normally.
  EXPECT_TRUE(StartsWith(lines[1], "ok verb=anonymize"));
}

TEST(ServerTest, ExactlyCapSizedLineIsStillServed) {
  AnonymizationService service({.workers = 1});
  // Boundary: a line of exactly the cap parses; one byte over does not.
  std::string line = "anonymize algo=resilient k=2 csv=a;1;1;2;2";
  line.append(kMaxProtocolLineBytes - line.size() - 1, ' ');
  ASSERT_EQ(line.size(), kMaxProtocolLineBytes - 1);
  std::istringstream in(line + "\n");
  std::ostringstream out;
  EXPECT_EQ(ServeLines(service, in, out), 1u);
  EXPECT_TRUE(StartsWith(out.str(), "ok verb=anonymize"));
}

TEST(ServerTest, CrlfLineEndingsAreTolerated) {
  AnonymizationService service({.workers = 1});
  // A Windows-side client (or a proxy normalizing newlines) terminates
  // lines with \r\n; the \r must not poison the last key=value token.
  std::istringstream in(
      "anonymize algo=resilient k=2 csv=a;1;1;2;2\r\n"
      "stats\r\n"
      "shutdown\r\n");
  std::ostringstream out;
  const size_t served = ServeLines(service, in, out);
  EXPECT_EQ(served, 3u);
  const std::vector<std::string> lines = Split(out.str(), '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(StartsWith(lines[0], "ok verb=anonymize"));
  EXPECT_TRUE(StartsWith(lines[1], "ok verb=stats"));
  EXPECT_TRUE(StartsWith(lines[2], "ok verb=shutdown"));
}

TEST(ServerTest, ShutdownStopsAdmission) {
  AnonymizationService service({.workers = 1});
  service.Shutdown();
  AnonymizeRequest request;
  request.algorithm = "resilient";
  request.k = 1;
  request.csv_text = "a\n1\n";
  const AnonymizeResponse response = service.Handle(std::move(request));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error, ServiceError::kShuttingDown);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace kanon
