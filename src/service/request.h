#ifndef KANON_SERVICE_REQUEST_H_
#define KANON_SERVICE_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>

#include "data/table.h"
#include "util/run_context.h"
#include "util/status.h"

/// \file
/// Request/response types of the `kanon::service` layer and the typed
/// error taxonomy every service surface (embedded API, line protocol,
/// `kanond`) reports failures through.
///
/// The paper's NP-hardness results (Theorems 3.1/3.2) mean a server
/// cannot promise to solve a request optimally within its deadline — but
/// it can promise to *answer* every request: with a (possibly degraded)
/// valid k-anonymization, or with a typed rejection. `AnonymizeRequest`
/// carries everything needed to make that call — the relation (inline
/// CSV or a pre-parsed table), the registry algorithm name, k, and the
/// execution-control knobs that seed the job's RunContext.

namespace kanon {

/// Failure buckets of the service layer. Each maps onto exactly one
/// StatusCode (ServiceErrorCode) so embedded callers can switch on the
/// generic code while protocol clients see the finer-grained name.
enum class ServiceError {
  kNone = 0,
  /// A protocol line could not be tokenized (bad key=value syntax).
  kMalformedLine,
  /// The protocol verb is not one of anonymize / stats / shutdown.
  kUnknownVerb,
  /// A request field is outside its domain (k < 1, k > n, bad number).
  kBadParameter,
  /// The algorithm name is not in the registry.
  kUnknownAlgorithm,
  /// The request referenced a table file that does not exist.
  kTableNotFound,
  /// The inline/referenced CSV failed to parse.
  kTableParseError,
  /// Admission control: the job queue is at capacity.
  kQueueFull,
  /// The service is shutting down and no longer accepts work.
  kShuttingDown,
  /// The request was cancelled before its job ran.
  kCancelled,
  /// Load shedding: the queue is under pressure and the request's
  /// priority did not clear the admission bar.
  kShedLowPriority,
  /// A worker failed while holding the job and the retry budget ran out.
  kWorkerFailure,
  /// The job was running when the daemon died; found in the journal at
  /// restart with no recorded outcome.
  kInterrupted,
  /// The watchdog preempted the job's worker after it stopped making
  /// observable progress (no heartbeat/checkpoint advance within the
  /// stall bound).
  kWatchdogPreempted,
  /// A protocol line exceeded the transport's line-length cap; the line
  /// was discarded unparsed (nothing was silently truncated).
  kLineTooLong,
  /// A binary-protocol frame failed envelope or body decoding (bad
  /// magic/version, hostile length, checksum mismatch, torn body).
  kBadFrame,
  /// The TCP front end is at its connection limit; the new connection
  /// was rejected with this typed response and closed.
  kConnectionLimit,
  /// CoDel admission control: queue delay stayed above target for a
  /// full interval, and this arrival fell on the shedding schedule.
  kShedOverload,
  /// Deadline reconciliation at dispatch: the remaining deadline budget
  /// (deadline minus queue delay) cannot fit even the optimistic
  /// solve-time estimate for the job's backend — rejected before any
  /// solve work.
  kDeadlineInfeasible,
};

/// Protocol-facing name: "queue_full", "unknown_algorithm", ...
const char* ServiceErrorName(ServiceError error);

/// The StatusCode bucket each taxonomy entry maps onto (kNone -> kOk).
StatusCode ServiceErrorCode(ServiceError error);

/// Builds the Status carrying `error`'s code and `message`.
Status MakeServiceStatus(ServiceError error, std::string message);

/// One anonymization job. The relation travels either pre-parsed in
/// `table` or as CSV text in `csv_text` (header record first; `table`
/// wins when both are set). ValidateAndPrepare parses/validates in
/// place before the request is admitted.
/// Domain caps for the shard knobs; requests outside them are rejected
/// with kBadParameter rather than silently clamped.
inline constexpr size_t kMaxRequestShards = 1024;
inline constexpr size_t kMaxRequestShardParallelism = 256;

struct AnonymizeRequest {
  /// Registry name (see KnownAnonymizers), run inside the resilient
  /// fallback chain so a too-hard instance degrades instead of failing.
  std::string algorithm = "resilient";
  /// Privacy parameter; must satisfy 1 <= k <= rows.
  size_t k = 3;
  /// End-to-end deadline in milliseconds, measured from admission (queue
  /// wait counts against it). <= 0 means no deadline.
  double deadline_ms = 0.0;
  /// Node/iteration budget forwarded to the RunContext; 0 = unlimited.
  uint64_t node_budget = 0;
  /// Dispatch priority: higher runs first (ties: oldest deadline first,
  /// then FIFO).
  int priority = 0;
  /// When false the response omits the anonymized CSV payload (the
  /// cost/stage summary is still filled) — for callers that only probe.
  bool emit_csv = true;
  /// Protocol-only knob (`wait=0`): when false the line handler answers
  /// as soon as the job is admitted instead of blocking on the result.
  /// Embedded callers pick blocking vs. not by calling Handle vs Submit.
  bool wait = true;
  /// Coreset knobs, applied to every coreset_ level of the algorithm
  /// (and folded into the result-cache key when it has one, so different
  /// knobs never share an entry). Rate must lie in (0, 1]; 0 means the
  /// subsystem default.
  double coreset_rate = 0.0;
  /// Sampler seed; 0 means the subsystem default.
  uint64_t coreset_seed = 0;
  /// Shard knobs, applied to every sharded_ level (and keyed the same
  /// way). `shards` is the target shard count (0 = subsystem default;
  /// capped at kMaxRequestShards); `shard_parallelism` caps concurrent
  /// shard solves (0 = the process parallelism; capped at
  /// kMaxRequestShardParallelism and never above the machine cap at run
  /// time).
  size_t shards = 0;
  size_t shard_parallelism = 0;
  /// Brownout stamp, set only by the worker pool when the overload
  /// governor rewrote this job to a cheaper backend (never parsed from
  /// the wire). Folded into the result-cache knobs fingerprint so a
  /// browned-out entry can never collide with — and never answer — a
  /// full-fidelity request, even one for the same effective backend.
  int brownout_level = 0;
  /// Inline CSV text (ignored once `table` is set).
  std::string csv_text;
  /// The parsed relation; set by ValidateAndPrepare from `csv_text`.
  std::optional<Table> table;
  /// Crash-resume state, set only by journal replay (never parsed from
  /// the wire or serialized back to the journal): the solver name and
  /// payload of the job's last durable checkpoint. The worker installs
  /// it on the job's RunContext so the named solver continues instead of
  /// starting cold.
  std::string resume_solver;
  std::string resume_payload;
};

/// Outcome of one request. `status.ok()` distinguishes answers from
/// rejections; an answer always carries a *valid* k-anonymous partition
/// summary (the resilient chain guarantees it), with `termination` and
/// `stage`/`chain` recording how far it had to degrade.
struct AnonymizeResponse {
  /// Service-assigned job id (0 for requests rejected at admission).
  uint64_t id = 0;
  /// OK for answers; the taxonomy-mapped code for rejections.
  Status status;
  /// Taxonomy bucket behind `status` (kNone for answers).
  ServiceError error = ServiceError::kNone;
  std::string algorithm;
  size_t k = 0;
  /// Rows in the input relation.
  size_t rows = 0;
  /// Suppressed-entry count of the answer (the paper's objective).
  size_t cost = 0;
  /// Chain stage that produced the answer ("exact_dp", "suppress_all"...).
  std::string stage;
  /// Per-stage outcomes, e.g. "exact_dp(declined:budget)->greedy_cover(ok)".
  std::string chain;
  /// Why the run ended (kNone = full-quality completion).
  StopReason termination = StopReason::kNone;
  /// Backend that actually produced the answer after any overload
  /// rewrite (brownout ladder or retry-budget degradation). Empty when
  /// the requested algorithm ran unmodified.
  std::string effective_algorithm;
  /// Brownout ladder level the job was dispatched under (0 green,
  /// 1 yellow, 2 red). Nonzero only when the overload governor rewrote
  /// or could have rewritten the job.
  int brownout = 0;
  /// True when the answer came from the result cache.
  bool cache_hit = false;
  /// Milliseconds spent queued before a worker picked the job up.
  double queue_ms = 0.0;
  /// Milliseconds spent producing the answer (near zero on cache hits).
  double run_ms = 0.0;
  /// The anonymized relation as CSV (empty when emit_csv was false or
  /// the request was rejected).
  std::string anonymized_csv;

  bool ok() const { return status.ok(); }
};

/// Validates `request` in place: parses `csv_text` into `table` when
/// needed, resolves the algorithm against the registry, and checks
/// 1 <= k <= rows. On failure returns the non-OK status and stores the
/// taxonomy bucket in *error (which must be non-null).
Status ValidateAndPrepare(AnonymizeRequest& request, ServiceError* error);

/// The line protocol's request syntax, shared with the job journal.
/// ParseRequestLine parses the key=value tail of an `anonymize` line
/// (inline `csv=` rows ';'-separated, `file=` a CSV path).
StatusOr<AnonymizeRequest> ParseRequestLine(const std::string& tail,
                                            ServiceError* error);

/// ParseRequestLine's inverse on every wire field but the relation: the
/// algorithm, k, deadline, budget, priority, emit flag and the four
/// wrapper knobs as space-separated key=value tokens. Doubles are
/// written in their shortest exact form, so they parse back unchanged.
std::string FormatRequestFields(const AnonymizeRequest& request);

/// Inline-CSV transport encoding, shared by the line protocol and the
/// job journal: ';' stands for the record separator, so values must not
/// themselves contain ';'.
std::string InlineToCsv(std::string text);
std::string CsvToInline(std::string text);

}  // namespace kanon

#endif  // KANON_SERVICE_REQUEST_H_
