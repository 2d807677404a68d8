#ifndef KANON_CHAOS_CHAOS_H_
#define KANON_CHAOS_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Seeded chaos schedules against the live serving stack.
///
/// One schedule = one seed, run as three legs one after another, in a
/// fixed order (the FaultRegistry, CoresetMetrics and ShardMetrics are
/// process-wide). Each leg draws its own fault plan and workload from
/// the seed. Every OK answer in every leg passes one answer oracle, the
/// paper's suppressor model: the answer parses as CSV, has the request's
/// shape and header, every cell is the input's or `*`, it is
/// k-anonymous, and its star count equals the reported cost.
///
/// **Service leg** — a JobQueue + one-worker WorkerPool + ResultCache +
/// JobJournal + CheckpointStore + Watchdog, with faults at the solver,
/// queue, worker, cache, journal, checkpoint, coreset and shard sites:
///
///   1. every admitted job terminates with an oracle-valid answer or a
///      typed error; every admission rejection is typed; and
///      submitted == rejected + ok + error;
///   2. the cache never serves a fault-tainted result (a cache hit's
///      termination is kNone or kBudget);
///   3. the job journal replays from the full file and from any crash
///      prefix (intact records plus at most one torn tail line);
///   4. every snapshot left in the store loads as a stamp-matched state
///      of its own job or fails typed (kDataLoss / kParseError), even
///      under injected save failures and torn writes;
///   5. resuming a job twice from its snapshot (fresh contexts, faults
///      disarmed) gives bit-identical answers (cost, CSV, stage and
///      termination) that pass the oracle;
///   6. the watchdog preempts exactly the stalled: each `worker.stall`
///      fire gives one preemption and one typed watchdog_preempted
///      answer, and heartbeating `worker.slow` jobs are never preempted;
///  10. a faulted shard never corrupts the merged partition: every OK
///      answer of a `sharded_*` job passes the oracle.
///
/// **Net leg** — concurrent KNET client sessions (valid requests,
/// pipelined bursts, stats probes, hostile bytes) against a NetServer
/// with faults at the `net.*` sites and `queue.admit`, drained
/// mid-flight the way SIGTERM drains kanond:
///
///   7. every interaction ends in a typed response or a clean close —
///      never non-protocol bytes, never a hang, a torn frame only when a
///      mid-write fault is armed — and every OK answer passes the oracle;
///   8. hostile frames corrupt no shared state: the journal replays with
///      no job pending, and the queue accepted what the pool completed;
///   9. drain loses nothing: jobs_submitted == responses_delivered +
///      responses_dropped.
///
/// **Overload leg** — the overload-control plane:
///
///  11. a queue + one-worker pool with forced sheds, forced brownouts
///      and a drained retry budget answers every admitted job with an
///      oracle-valid answer or a typed error; forced sheds reconcile
///      exactly with typed shed_overload rejections, and forced
///      brownouts with the pool's rewrites;
///  12. two HealthGovernors fed one seeded signal stream make
///      bit-identical brownout decisions;
///  13. in a virtual-time single-server simulation of one seeded
///      arrival sequence, goodput with the governor on is no worse than
///      with it off.
///
/// Determinism: the service and overload legs pin solver parallelism to
/// 1, submit every job before their one worker starts, use node budgets
/// instead of wall-clock deadlines, and keep breakers open and the
/// organic overload thresholds out of reach, so their outcomes are a
/// pure function of the seed. The net leg's socket interleaving is not
/// deterministic; its digest covers the generated workload and fault
/// plan only. Same seed => same `fingerprint`, on any machine.

namespace kanon {

struct ChaosOptions {
  uint64_t seed = 0;
  /// Jobs the service leg and the overload leg each submit.
  size_t jobs = 24;
  /// Directory for the legs' journals and the checkpoint store.
  std::string scratch_dir = "/tmp";
};

/// What one leg of a schedule did.
struct ChaosLegReport {
  /// Requests issued: jobs submitted, or the frames (valid and hostile)
  /// of the net leg's workload.
  size_t requests = 0;
  /// OK answers (each passed the answer oracle or is a violation).
  size_t ok = 0;
  /// Typed refusals: admission rejections and typed error answers.
  size_t typed = 0;
  /// Fault-site fires while the leg's plan was armed.
  uint64_t fires = 0;
  /// The leg's deterministic digest.
  uint64_t digest = 0;
  /// How many of the schedule's violations this leg reported.
  size_t violations = 0;
};

struct ChaosReport {
  uint64_t seed = 0;
  ChaosLegReport service;
  ChaosLegReport net;
  ChaosLegReport overload;
  /// Invariant violations, each naming its invariant number; empty means
  /// the schedule passed.
  std::vector<std::string> violations;
  /// Folds the three leg digests; equal across runs with the same seed.
  uint64_t fingerprint = 0;

  bool passed() const { return violations.empty(); }
};

/// Runs one seeded schedule. Each leg arms the process-wide
/// FaultRegistry while it runs, so do not run schedules concurrently in
/// one process.
ChaosReport RunChaosSchedule(const ChaosOptions& options);

}  // namespace kanon

#endif  // KANON_CHAOS_CHAOS_H_
