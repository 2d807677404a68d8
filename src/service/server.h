#ifndef KANON_SERVICE_SERVER_H_
#define KANON_SERVICE_SERVER_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "service/cache.h"
#include "service/journal.h"
#include "service/overload/overload.h"
#include "service/queue.h"
#include "service/worker_pool.h"
#include "util/metrics.h"

/// \file
/// The embeddable anonymization service and its line protocol.
///
/// `AnonymizationService` wires queue -> workers -> cache -> resilient
/// chain into one long-running engine: admit, execute, answer. It is the
/// multiplexing layer the per-request RunContext machinery plugs into.
///
/// `ServeLines` speaks a dependency-free newline-delimited protocol over
/// any iostream pair (kanond binds it to stdin/stdout). One request per
/// line, one response line per request:
///
///   > anonymize algo=resilient k=2 csv=age,zip;30,10001;30,10001
///   ok id=1 verb=anonymize algo=resilient k=2 rows=2 cost=0
///     stage=branch_bound termination=completed chain=branch_bound(ok)
///     cache=miss queue_ms=0.05 run_ms=0.41 csv=age,zip;30,10001;30,10001
///   > stats
///   ok verb=stats workers=4 queue_depth=0 accepted=1 rejected=0 shed=0
///     completed=1 ... overload_retry_degraded=0 breakers=branch_bound:closed
///     cache_hits=0 cache_misses=1 ... overload_level=off build=...
///   > shutdown
///   ok verb=shutdown served=2
///
/// (Responses are single lines; they are wrapped here for readability.)
/// Inline CSV encodes rows with ';' in place of newlines, so values must
/// not contain spaces, ';' or unbalanced quotes. Failures are single
/// `error ...` lines carrying the taxonomy name and the mapped
/// StatusCode, and never terminate the serving loop:
///
///   > anonymize algo=nope k=2 csv=a;1;2
///   error verb=anonymize code=NOT_FOUND error=unknown_algorithm
///     message="unknown algorithm 'nope'; known: ..."

namespace kanon {

struct ServiceOptions {
  /// Worker threads; 0 means GetParallelism().
  unsigned workers = 0;
  /// Job-queue capacity (admission control bound).
  size_t queue_capacity = 64;
  /// Result-cache capacity in entries; 0 disables caching.
  size_t cache_capacity = 64;
  /// Load-shedding knobs forwarded to the queue (see QueueOptions).
  double shed_start_fraction = 0.75;
  int shed_levels = 4;
  /// Per-job retry budget and backoff (see service/retry.h).
  RetryPolicy retry;
  /// Per-stage circuit-breaker tuning (see service/breaker.h).
  BreakerOptions breaker;
  /// Optional job-lifecycle observer, typically the crash journal (not
  /// owned; must outlive the service).
  JobObserver* observer = nullptr;
  /// Durable snapshot store (not owned; null = checkpointing off) plus
  /// the cadence forwarded to the worker pool.
  CheckpointStore* checkpoints = nullptr;
  uint64_t checkpoint_every_polls = 256;
  double checkpoint_every_ms = 0.0;
  bool keep_checkpoints = false;
  /// Stuck-worker watchdog: a job whose progress counters flat-line for
  /// `watchdog_stall_ms` is preempted with the typed watchdog_preempted
  /// error. 0 disables the watchdog entirely.
  double watchdog_stall_ms = 0.0;
  double watchdog_scan_interval_ms = 10.0;
  /// Adaptive overload control (see service/overload/overload.h):
  /// CoDel queue-delay admission, deadline reconciliation at dispatch,
  /// a pool-wide retry budget and the brownout ladder. Off by default;
  /// when enabled, `overload` tunes the plane (its `governor_enabled`
  /// maps onto kanond's --brownout=off|auto).
  bool overload_enabled = false;
  OverloadOptions overload;
};

/// A `stats` snapshot: the stack's counters plus the gauges and
/// per-component state the counter list does not cover.
struct ServiceStats {
  unsigned workers = 0;
  size_t queue_depth = 0;
  /// Every counter of util/metrics.h's list.
  MetricsSnapshot counters;
  /// "stage:state,..." rendering of the breaker board ("-" when no
  /// stage has run yet).
  std::string breakers;
  CacheStats cache;
  /// Overload governor: level transitions so far, and the level
  /// ("green"/"yellow"/"red"; "off" when the plane or its governor is
  /// disabled).
  uint64_t overload_transitions = 0;
  std::string overload_level = "off";
};

/// Long-running multi-request engine. Thread-safe: any number of
/// threads may Submit/Handle concurrently.
class AnonymizationService {
 public:
  explicit AnonymizationService(ServiceOptions options = {});
  ~AnonymizationService();

  AnonymizationService(const AnonymizationService&) = delete;
  AnonymizationService& operator=(const AnonymizationService&) = delete;

  /// Validates and admits `request`. On success returns the job id and
  /// the future carrying its response; on failure (validation or
  /// admission control) returns the typed status and sets *error.
  StatusOr<JobQueue::Ticket> Submit(AnonymizeRequest request,
                                    ServiceError* error);

  /// Callback-style admission for event-loop callers (the TCP front
  /// end): like Submit, but instead of a future the worker invokes
  /// `on_done` with the final response on its own thread (see
  /// Job::on_done for the contract). Returns the job id.
  StatusOr<uint64_t> SubmitAsync(
      AnonymizeRequest request, ServiceError* error,
      std::function<void(const AnonymizeResponse&)> on_done);

  /// Synchronous convenience: Submit + wait. Rejections come back as a
  /// response with the non-OK status filled in, so callers always get
  /// one AnonymizeResponse per request.
  AnonymizeResponse Handle(AnonymizeRequest request);

  /// Requests cooperative cancellation of an in-flight job.
  bool Cancel(uint64_t id) { return queue_.Cancel(id); }

  /// The overload-control plane (null when overload_enabled was false).
  const OverloadControl* overload() const { return overload_.get(); }

  ServiceStats Stats() const;

  /// The stack's counter registry (owned by its job queue).
  Metrics& metrics() { return queue_.metrics(); }

  /// Stops admission, drains in-flight jobs and joins the workers.
  /// Called by the destructor; safe to call early and repeatedly.
  void Shutdown();

 private:
  ResultCache cache_;
  /// Declared before queue_/pool_: both consult it (admission shed,
  /// dequeue signals) and destruction runs in reverse order.
  std::unique_ptr<OverloadControl> overload_;
  JobQueue queue_;
  /// Declared before pool_: workers Watch/Unwatch through it, so it
  /// must outlive them (destruction runs in reverse order and ~WorkerPool
  /// joins the workers first).
  std::unique_ptr<Watchdog> watchdog_;
  WorkerPool pool_;
};

/// Summary of a crash-journal replay performed at daemon startup.
struct JournalReplayReport {
  /// Pending jobs resubmitted and answered (they had not started).
  uint64_t resubmitted = 0;
  /// Started jobs continued from their durable checkpoint.
  uint64_t resumed = 0;
  /// Started jobs with a journaled checkpoint whose snapshot turned out
  /// missing, stale or corrupt; degraded to the interrupted path (also
  /// counted in `interrupted`).
  uint64_t resume_degraded = 0;
  /// Jobs that were running (or cancelled) at the crash; answered with
  /// the typed `interrupted` / `cancelled` error instead of re-running.
  uint64_t interrupted = 0;
  /// Jobs the journal proves finished before the crash.
  uint64_t completed = 0;
  /// Torn trailing records dropped by the parser (0 or 1).
  uint64_t torn_records = 0;
  /// One protocol-style line per recovered job (`ok verb=replay ...` /
  /// `error verb=replay ...`), for the daemon to print on its transport.
  std::vector<std::string> lines;
};

/// Checkpoint wiring for a replay. When `checkpoints` is set, started
/// jobs with a journaled checkpoint are *continued*: the snapshot is
/// loaded and verified against the job's identity (table fingerprint +
/// k), installed on the resubmitted request, and the job re-runs from
/// where it left off. All needed snapshots are read into memory up
/// front and the store is then cleared — the new incarnation's job ids
/// restart at 1 and must not collide with the dead incarnation's files.
struct ReplayOptions {
  CheckpointStore* checkpoints = nullptr;
};

/// Applies an already-parsed replay: not-yet-started jobs are
/// resubmitted (synchronously) and answered; started-but-unfinished
/// ones continue from their checkpoint when one is recorded, usable and
/// stamp-matched (see ReplayOptions), and are reported `interrupted`
/// otherwise. When the service's observer is a fresh journal,
/// resubmissions are re-journaled under new ids — which is why the
/// daemon reads the old file, Reset()s it, and only then applies (old
/// ids must not collide with the new incarnation's).
JournalReplayReport ApplyReplayToService(JournalReplay replay,
                                         AnonymizationService& service,
                                         const ReplayOptions& options = {});

/// Convenience for tests and embedders whose service has no journal
/// observer on `path`: ReplayFile + ApplyReplayToService. Fails with
/// kParseError when the journal is corrupt beyond a torn tail. Does not
/// modify the file.
StatusOr<JournalReplayReport> ReplayJournalIntoService(
    const std::string& path, AnonymizationService& service);

/// Serves the line protocol from `in` to `out` until EOF or a
/// `shutdown` line; returns the number of request lines served. Blank
/// lines and `#` comment lines are skipped. Every response is flushed
/// immediately, so the loop works interactively and piped alike.
size_t ServeLines(AnonymizationService& service, std::istream& in,
                  std::ostream& out);

/// Protocol building block, exposed for tests and custom transports:
/// dispatches one full protocol line ("anonymize ...", "stats",
/// "shutdown"; the request syntax is ParseRequestLine's, see
/// service/request.h) and returns the response line (no trailing
/// newline). *shutdown is set when the line asked the serving loop to
/// stop.
std::string HandleLine(AnonymizationService& service,
                       const std::string& line, bool* shutdown);

/// The `ok verb=stats ...` key=value line for a stats snapshot. Shared
/// by the line protocol and the binary protocol (which ships the same
/// text as its stats payload). Counter keys come from kCounterKeys
/// (util/metrics.h), the one list of counter names.
std::string FormatStatsLine(const ServiceStats& stats);

/// Upper bound on one protocol line, transport framing included. A line
/// longer than this is *discarded unparsed* and answered with the typed
/// `line_too_long` error — the serving loop never buffers unbounded
/// input and never acts on a silently-truncated request.
inline constexpr size_t kMaxProtocolLineBytes = size_t{1} << 20;  // 1 MiB

}  // namespace kanon

#endif  // KANON_SERVICE_SERVER_H_
