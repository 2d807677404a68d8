#include "service/journal.h"

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "data/csv_table.h"
#include "fault/fault.h"
#include "gtest/gtest.h"

/// \file
/// Crash journal semantics: lifecycle records round-trip through
/// ReplayFile; a torn tail (the crash signature) is dropped and
/// counted while mid-file corruption is a typed kParseError; started
/// and cancelled jobs are flagged for the `interrupted` path instead
/// of blind re-execution; an injected torn write kills the journal the
/// way a real crash would.

namespace kanon {
namespace {

std::string TempJournalPath(const std::string& tag) {
  return ::testing::TempDir() + "kanon_journal_test_" + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

Job MakeJob(uint64_t id, const std::string& csv = "a,b\n1,2\n1,2\n") {
  Job job;
  job.id = id;
  job.request.algorithm = "resilient";
  job.request.k = 2;
  job.request.deadline_ms = 250.0;
  job.request.node_budget = 1000;
  job.request.priority = 1;
  job.request.csv_text = csv;
  return job;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JournalTest, LifecycleRecordsRoundTripThroughReplay) {
  const std::string path = TempJournalPath("roundtrip");
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.Open().ok());
    journal.OnAdmit(MakeJob(1));         // finishes ok
    journal.OnAdmit(MakeJob(2));         // never started -> pending
    journal.OnAdmit(MakeJob(3));         // started, no done -> interrupted
    journal.OnStart(1);
    AnonymizeResponse done;
    journal.OnDone(1, done);
    journal.OnStart(3);
    EXPECT_EQ(journal.appends(), 6u);
  }

  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->completed, 1u);
  EXPECT_EQ(replay->torn_records, 0u);
  ASSERT_EQ(replay->pending.size(), 2u);

  // Admission order is preserved and the request fields survive.
  EXPECT_EQ(replay->pending[0].old_id, 2u);
  EXPECT_FALSE(replay->pending[0].started);
  EXPECT_EQ(replay->pending[0].request.algorithm, "resilient");
  EXPECT_EQ(replay->pending[0].request.k, 2u);
  EXPECT_DOUBLE_EQ(replay->pending[0].request.deadline_ms, 250.0);
  EXPECT_EQ(replay->pending[0].request.node_budget, 1000u);
  EXPECT_EQ(replay->pending[0].request.priority, 1);
  EXPECT_TRUE(replay->pending[0].request.emit_csv);
  EXPECT_EQ(replay->pending[0].request.csv_text, "a,b\n1,2\n1,2");

  EXPECT_EQ(replay->pending[1].old_id, 3u);
  EXPECT_TRUE(replay->pending[1].started);
  ::unlink(path.c_str());
}

TEST(JournalTest, CancelRecordFlagsTheReplayedJob) {
  const std::string path = TempJournalPath("cancel");
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    journal.OnAdmit(MakeJob(7));
    journal.OnCancel(7);
  }
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->pending.size(), 1u);
  EXPECT_TRUE(replay->pending[0].cancelled);
  EXPECT_FALSE(replay->pending[0].started);
  ::unlink(path.c_str());
}

TEST(JournalTest, MissingFileIsAnEmptyFirstBootReplay) {
  const StatusOr<JournalReplay> replay =
      JobJournal::ReplayFile(TempJournalPath("never_written"));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->pending.empty());
  EXPECT_EQ(replay->completed, 0u);
}

TEST(JournalTest, TornTailIsDroppedAndCounted) {
  const std::string path = TempJournalPath("torn");
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    journal.OnAdmit(MakeJob(1));
    journal.OnAdmit(MakeJob(2));
  }
  const std::string bytes = ReadAll(path);
  // Cut mid-way through the final record, as a crash during write()
  // would: the first record must still replay, the tail must not.
  WriteAll(path, bytes.substr(0, bytes.size() - 10));

  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->torn_records, 1u);
  ASSERT_EQ(replay->pending.size(), 1u);
  EXPECT_EQ(replay->pending[0].old_id, 1u);
  ::unlink(path.c_str());
}

TEST(JournalTest, MidFileCorruptionIsATypedRefusal) {
  const std::string path = TempJournalPath("corrupt");
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    journal.OnAdmit(MakeJob(1));
    journal.OnAdmit(MakeJob(2));
    journal.OnStart(2);
  }
  std::string bytes = ReadAll(path);
  // Flip one payload byte of the FIRST record: a checksum mismatch
  // before the tail is tampering/bit-rot, not a crash, and replay must
  // refuse rather than silently drop admitted work.
  bytes[20] = bytes[20] == 'x' ? 'y' : 'x';
  WriteAll(path, bytes);

  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kParseError);
  ::unlink(path.c_str());
}

TEST(JournalTest, ResetTruncatesForTheNextIncarnation) {
  const std::string path = TempJournalPath("reset");
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    journal.OnAdmit(MakeJob(1));
  }
  ASSERT_FALSE(ReadAll(path).empty());
  ASSERT_TRUE(JobJournal::Reset(path).ok());
  EXPECT_TRUE(ReadAll(path).empty());

  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->pending.empty());
  ::unlink(path.c_str());
}

TEST(JournalTest, InjectedTornWriteKillsTheJournalLikeACrash) {
  const std::string path = TempJournalPath("injected");
  ::unlink(path.c_str());

  FaultPlan plan;
  plan.sites.push_back({.site = "journal.append", .first_n = 1});
  {
    JobJournal journal(path);
    ScopedFaultInjection injection(plan);
    journal.OnAdmit(MakeJob(1));  // torn: half the line reaches disk
    journal.OnAdmit(MakeJob(2));  // dropped: the journal is dead
    EXPECT_EQ(journal.appends(), 0u);
    EXPECT_FALSE(journal.Open().ok());
  }

  // Replay sees exactly what a post-crash boot would: one torn tail,
  // no trustworthy records.
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->torn_records, 1u);
  EXPECT_TRUE(replay->pending.empty());
  ::unlink(path.c_str());
}

TEST(JournalTest, AdmitPayloadPrefersTheParsedTable) {
  Job job = MakeJob(5, "x\n1\n1\n");
  StatusOr<Table> table = ParseTableCsv("q\n3\n3\n");
  ASSERT_TRUE(table.ok());
  job.request.table.emplace(*std::move(table));
  const std::string payload = JobJournal::AdmitPayload(job);
  // The parsed table wins over stale csv_text, and rows are inlined
  // with ';' so the record stays one line.
  EXPECT_NE(payload.find("csv=q;3;3"), std::string::npos) << payload;
  EXPECT_EQ(payload.find('\n'), std::string::npos);
}

TEST(JournalTest, AdmitReplayKeepsEveryRequestField) {
  const std::string path = TempJournalPath("every_field");
  ::unlink(path.c_str());
  Job job;
  job.id = 9;
  AnonymizeRequest& request = job.request;
  request.algorithm = "coreset_sharded_mdav";
  request.k = 4;
  request.deadline_ms = 0.1 + 0.2;  // no short decimal form
  request.node_budget = (uint64_t{1} << 63) + 5;
  request.priority = -3;
  request.emit_csv = false;
  request.coreset_rate = 1.0 / 3.0;
  request.coreset_seed = UINT64_MAX - 1;
  request.shards = 5;
  request.shard_parallelism = 2;
  request.csv_text = "a,b\n1 x,2\n1 x,2\n";  // values with spaces
  {
    JobJournal journal(path);
    journal.OnAdmit(job);
  }
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->torn_records, 0u);
  ASSERT_EQ(replay->pending.size(), 1u);
  const AnonymizeRequest& got = replay->pending[0].request;
  EXPECT_EQ(got.algorithm, request.algorithm);
  EXPECT_EQ(got.k, request.k);
  EXPECT_EQ(got.deadline_ms, request.deadline_ms);
  EXPECT_EQ(got.node_budget, request.node_budget);
  EXPECT_EQ(got.priority, request.priority);
  EXPECT_EQ(got.emit_csv, request.emit_csv);
  EXPECT_EQ(got.coreset_rate, request.coreset_rate);
  EXPECT_EQ(got.coreset_seed, request.coreset_seed);
  EXPECT_EQ(got.shards, request.shards);
  EXPECT_EQ(got.shard_parallelism, request.shard_parallelism);
  EXPECT_EQ(got.csv_text, "a,b\n1 x,2\n1 x,2");
  ::unlink(path.c_str());
}

TEST(JournalTest, OlderAdmitRecordWithoutKnobKeysStillReplays) {
  // An admit record as journals written before the knob keys existed
  // carry it (checksum included); the missing keys take their defaults.
  const std::string path = TempJournalPath("older_admit");
  WriteAll(path,
           "5ea5154cc4e9dcf2 admit 4 algo=coreset_mdav k=2 "
           "deadline_ms=250.500 budget=1000 priority=-1 emit=0 "
           "csv=a,b;1 x,2;1 x,2\n");
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->torn_records, 0u);
  ASSERT_EQ(replay->pending.size(), 1u);
  EXPECT_EQ(replay->pending[0].old_id, 4u);
  const AnonymizeRequest& got = replay->pending[0].request;
  EXPECT_EQ(got.algorithm, "coreset_mdav");
  EXPECT_EQ(got.k, 2u);
  EXPECT_EQ(got.deadline_ms, 250.5);
  EXPECT_EQ(got.node_budget, 1000u);
  EXPECT_EQ(got.priority, -1);
  EXPECT_FALSE(got.emit_csv);
  EXPECT_EQ(got.coreset_rate, 0.0);
  EXPECT_EQ(got.coreset_seed, 0u);
  EXPECT_EQ(got.shards, 0u);
  EXPECT_EQ(got.shard_parallelism, 0u);
  EXPECT_EQ(got.csv_text, "a,b\n1 x,2\n1 x,2");
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace kanon
