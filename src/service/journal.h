#ifndef KANON_SERVICE_JOURNAL_H_
#define KANON_SERVICE_JOURNAL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/queue.h"
#include "util/status.h"

/// \file
/// Crash-consistent append-only job journal for `kanond`.
///
/// The daemon promises that every *admitted* job gets an answer — a
/// promise a SIGKILL would otherwise break silently. The journal makes
/// it survivable: each lifecycle transition (admit / start / cancel /
/// done) is appended as one checksummed line and fsync'd before the
/// transition takes effect downstream (admit is written before the job
/// becomes poppable). At restart, ReplayFile reconstructs the set of
/// admitted-but-unfinished jobs: those never started are resubmitted
/// verbatim; a job that had started when the process died is reported
/// with the typed `interrupted` error instead of being retried blindly
/// (it may have been the input that killed the daemon).
///
/// Record format — one line per transition:
///
///   <fnv64-hex16> admit <id> <request fields> csv=<inline-csv...>
///   <fnv64-hex16> start <id>
///   <fnv64-hex16> ckpt <id> <seq>
///   <fnv64-hex16> cancel <id>
///   <fnv64-hex16> done <id> <ok|error-name>
///
/// The request fields are FormatRequestFields' key=value tokens, which
/// replay reads back with the line protocol's ParseRequestLine (records
/// that carry only some of the keys replay with defaults for the rest);
/// `csv=` comes last and runs to the end of the line, so CSV values may
/// contain spaces.
///
/// `ckpt` records that snapshot `seq` of the job reached the checkpoint
/// store durably *before* the record was appended, so replay may trust
/// that a recorded checkpoint exists on disk (the converse tear — store
/// write landed, record did not — only costs the resume, degrading to
/// the typed `interrupted` path).
///
/// The checksum covers the payload after the first space. A crash can
/// tear at most the final line (appends are single write() calls);
/// replay drops a torn *tail* and counts it, while a corrupt line
/// *before* the tail means the file was tampered with or the disk lies,
/// and replay fails with kParseError rather than trusting it.

namespace kanon {

/// One admitted-but-unfinished job recovered from a journal.
struct ReplayedJob {
  /// Id under the previous daemon incarnation (ids restart at 1 after
  /// replay; responses echo the old id as `old_id`).
  uint64_t old_id = 0;
  AnonymizeRequest request;
  /// True when a `start` record was found (job was on a worker).
  bool started = false;
  /// True when a `cancel` record was found.
  bool cancelled = false;
  /// Highest checkpoint sequence recorded for the job; 0 = none.
  uint64_t checkpoint_seq = 0;
};

/// Outcome of replaying a journal file.
struct JournalReplay {
  /// Admitted jobs with no `done` record, in admission order.
  std::vector<ReplayedJob> pending;
  /// Jobs with a `done` record (finished before the crash).
  uint64_t completed = 0;
  /// Torn trailing lines dropped (0 or 1).
  uint64_t torn_records = 0;
};

/// Append-side of the journal; plugs into JobQueue/WorkerPool as their
/// JobObserver. Thread-safe. Opens `path` in append mode at
/// construction; Open() reports whether that worked (a dead journal
/// no-ops every append so the service itself keeps serving).
class JobJournal : public JobObserver {
 public:
  explicit JobJournal(std::string path);
  ~JobJournal() override;

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// OK when the journal file is open and healthy.
  Status Open() const;

  void OnAdmit(const Job& job) override;
  void OnStart(uint64_t id) override;
  void OnDone(uint64_t id, const AnonymizeResponse& response) override;
  void OnCancel(uint64_t id) override;
  void OnCheckpoint(uint64_t id, uint64_t seq) override;

  /// Records appended since construction (fsync'd).
  uint64_t appends() const;

  /// Parses `path` into a replay summary. A missing file is an empty
  /// (OK) replay: first boot. See the file comment for torn-tail vs
  /// mid-file corruption semantics.
  static StatusOr<JournalReplay> ReplayFile(const std::string& path);

  /// Serializes one admit payload (exposed for tests).
  static std::string AdmitPayload(const Job& job);

  /// Truncates the file at `path` (after a successful replay, so the
  /// new incarnation journals from a clean slate). Creates it if absent.
  static Status Reset(const std::string& path);

 private:
  void Append(const std::string& payload);

  const std::string path_;
  mutable std::mutex mu_;
  int fd_ = -1;
  /// Set after an append error (or an injected torn write): the file's
  /// tail is no longer trustworthy, so further appends are dropped —
  /// exactly what a crashed process would have written.
  bool dead_ = false;
  uint64_t appends_ = 0;
};

}  // namespace kanon

#endif  // KANON_SERVICE_JOURNAL_H_
