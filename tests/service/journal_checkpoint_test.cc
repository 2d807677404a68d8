#include <unistd.h>

#include <fstream>
#include <optional>
#include <string>

#include "ckpt/checkpoint.h"
#include "data/csv_table.h"
#include "gtest/gtest.h"
#include "service/cache.h"
#include "service/journal.h"
#include "service/server.h"

/// \file
/// The journal x checkpoint interplay: `ckpt` records ride in the
/// journal and surface as checkpoint_seq on replay; ApplyReplayToService
/// *continues* a started job whose snapshot is present and stamp-matched
/// (`resumed=1`), and degrades to the typed interrupted error — counting
/// resume_degraded — when the snapshot is missing, stale or corrupt.
/// Jobs without a journaled checkpoint never count as degraded.

namespace kanon {
namespace {

constexpr char kCsv[] = "a,b\n1,2\n1,2\n3,4\n3,4\n";

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "kanon_jnl_ckpt_" + tag + "_" +
         std::to_string(::getpid());
}

Job MakeJob(uint64_t id) {
  Job job;
  job.id = id;
  job.request.algorithm = "resilient";
  job.request.k = 2;
  job.request.csv_text = kCsv;
  job.request.emit_csv = true;
  return job;
}

/// A snapshot stamped for `kCsv` (unless a different fp is forced).
SolverSnapshot StampedSnapshot(uint64_t fp_override = 0) {
  StatusOr<Table> table = ParseTableCsv(kCsv);
  EXPECT_TRUE(table.ok());
  SolverSnapshot snapshot;
  snapshot.solver = "branch_bound";
  snapshot.table_fp =
      fp_override != 0 ? fp_override : TableFingerprint(*table);
  snapshot.k = 2;
  snapshot.seq = 3;
  snapshot.payload = "opaque-solver-state";
  return snapshot;
}

TEST(JournalCheckpoint, CkptRecordsSurviveReplayAndKeepTheMaxSeq) {
  const std::string path = TempPath("records.journal");
  ::unlink(path.c_str());
  {
    JobJournal journal(path);
    ASSERT_TRUE(journal.Open().ok());
    journal.OnAdmit(MakeJob(1));
    journal.OnStart(1);
    journal.OnCheckpoint(1, 1);
    journal.OnCheckpoint(1, 2);
    journal.OnAdmit(MakeJob(2));  // never started, never checkpointed
  }
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ASSERT_EQ(replay->pending.size(), 2u);
  EXPECT_TRUE(replay->pending[0].started);
  EXPECT_EQ(replay->pending[0].checkpoint_seq, 2u);
  EXPECT_EQ(replay->pending[1].checkpoint_seq, 0u);
  ::unlink(path.c_str());
}

struct ReplayFixture {
  /// Journals one started job with `seq` checkpoints (plus one
  /// never-started job), then replays into a fresh service.
  JournalReplayReport Run(CheckpointStore* store, uint64_t seq) {
    const std::string path = TempPath("fixture.journal");
    ::unlink(path.c_str());
    {
      JobJournal journal(path);
      EXPECT_TRUE(journal.Open().ok());
      journal.OnAdmit(MakeJob(1));
      journal.OnStart(1);
      for (uint64_t s = 1; s <= seq; ++s) journal.OnCheckpoint(1, s);
      journal.OnAdmit(MakeJob(2));
    }
    StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
    EXPECT_TRUE(replay.ok()) << replay.status();
    ::unlink(path.c_str());

    ServiceOptions options;
    options.workers = 1;
    service.emplace(options);
    ReplayOptions replay_options;
    replay_options.checkpoints = store;
    return ApplyReplayToService(*std::move(replay), *service,
                                replay_options);
  }

  std::optional<AnonymizationService> service;
};

TEST(JournalCheckpoint, StampMatchedSnapshotResumesTheStartedJob) {
  CheckpointStore store(TempPath("resume.ckpt"));
  ASSERT_TRUE(store.Clear().ok());
  ASSERT_TRUE(store.Save(1, StampedSnapshot()).ok());

  ReplayFixture fixture;
  const JournalReplayReport report = fixture.Run(&store, /*seq=*/3);
  EXPECT_EQ(report.resumed, 1u);
  EXPECT_EQ(report.resume_degraded, 0u);
  EXPECT_EQ(report.interrupted, 0u);
  EXPECT_EQ(report.resubmitted, 1u);
  ASSERT_EQ(report.lines.size(), 2u);
  EXPECT_NE(report.lines[0].find("verb=replay old_id=1 resumed=1"),
            std::string::npos)
      << report.lines[0];
  EXPECT_EQ(report.lines[0].rfind("ok ", 0), 0u) << report.lines[0];

  // The store was cleared: this incarnation's ids restart at 1 and must
  // not inherit the dead incarnation's snapshots.
  EXPECT_TRUE(store.List().empty());

  const MetricsSnapshot counters = fixture.service->Stats().counters;
  EXPECT_EQ(counters[Counter::kResumed], 1u);
  EXPECT_EQ(counters[Counter::kResumeDegraded], 0u);
  EXPECT_EQ(counters[Counter::kJournalReplays], 2u);
  ::rmdir(store.dir().c_str());
}

TEST(JournalCheckpoint, MissingSnapshotDegradesToTypedInterrupted) {
  CheckpointStore store(TempPath("missing.ckpt"));
  ASSERT_TRUE(store.Clear().ok());  // journaled ckpt, but no file

  ReplayFixture fixture;
  const JournalReplayReport report = fixture.Run(&store, /*seq=*/2);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.resume_degraded, 1u);
  EXPECT_EQ(report.interrupted, 1u);
  ASSERT_EQ(report.lines.size(), 2u);
  EXPECT_NE(report.lines[0].find("error=interrupted"), std::string::npos)
      << report.lines[0];
  EXPECT_NE(report.lines[0].find("checkpoint unusable"),
            std::string::npos)
      << report.lines[0];
  EXPECT_EQ(fixture.service->Stats().counters[Counter::kResumeDegraded], 1u);
  ::rmdir(store.dir().c_str());
}

TEST(JournalCheckpoint, StaleStampDegradesToTypedInterrupted) {
  CheckpointStore store(TempPath("stale.ckpt"));
  ASSERT_TRUE(store.Clear().ok());
  // Snapshot stamped for a *different* table: never resume it.
  ASSERT_TRUE(store.Save(1, StampedSnapshot(/*fp_override=*/42)).ok());

  ReplayFixture fixture;
  const JournalReplayReport report = fixture.Run(&store, /*seq=*/1);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.resume_degraded, 1u);
  EXPECT_EQ(report.interrupted, 1u);
  EXPECT_NE(report.lines[0].find("stale"), std::string::npos)
      << report.lines[0];
  ::rmdir(store.dir().c_str());
}

TEST(JournalCheckpoint, CorruptSnapshotDegradesToTypedInterrupted) {
  CheckpointStore store(TempPath("corrupt.ckpt"));
  ASSERT_TRUE(store.Clear().ok());
  ASSERT_TRUE(store.Save(1, StampedSnapshot()).ok());
  {
    // Truncate to half: the torn-write crash shape.
    std::ifstream in(store.PathFor(1), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(store.PathFor(1),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  ReplayFixture fixture;
  const JournalReplayReport report = fixture.Run(&store, /*seq=*/1);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.resume_degraded, 1u);
  EXPECT_EQ(report.interrupted, 1u);
  EXPECT_NE(report.lines[0].find("checkpoint unusable"),
            std::string::npos)
      << report.lines[0];
  ::rmdir(store.dir().c_str());
}

TEST(JournalCheckpoint, NoCkptRecordMeansInterruptedWithoutDegradation) {
  CheckpointStore store(TempPath("nockpt.ckpt"));
  ASSERT_TRUE(store.Clear().ok());
  // Even a stamp-matched snapshot on disk is ignored when the journal
  // never recorded a checkpoint: the journal is the source of truth.
  ASSERT_TRUE(store.Save(1, StampedSnapshot()).ok());

  ReplayFixture fixture;
  const JournalReplayReport report = fixture.Run(&store, /*seq=*/0);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.resume_degraded, 0u);
  EXPECT_EQ(report.interrupted, 1u);
  EXPECT_NE(report.lines[0].find("error=interrupted"), std::string::npos);
  // The stray snapshot is still swept by the pre-resubmit Clear().
  EXPECT_TRUE(store.List().empty());
  ::rmdir(store.dir().c_str());
}

TEST(JournalCheckpoint, NoStoreConfiguredReplaysAsPlainInterrupted) {
  ReplayFixture fixture;
  const JournalReplayReport report =
      fixture.Run(/*store=*/nullptr, /*seq=*/5);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.resume_degraded, 0u);
  EXPECT_EQ(report.interrupted, 1u);
}

}  // namespace
}  // namespace kanon
