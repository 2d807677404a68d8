#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "chaos/legs.h"
#include "ckpt/checkpoint.h"
#include "fault/fault.h"
#include "service/journal.h"
#include "service/watchdog.h"
#include "util/fingerprint.h"

namespace kanon {
namespace chaos {

namespace {

/// Sites eligible for a schedule-specific probability override.
const char* const kOverridableSites[] = {
    "exact_dp.alloc",   "exact_dp.precompute", "exact_dp.sweep",
    "branch_bound.node", "greedy_cover.alloc", "greedy_cover.family",
    "parallel.worker",  "queue.admit",         "worker.dispatch",
    "worker.deliver",   "cache.lookup",        "cache.poison",
    "journal.append",   "ckpt.save",           "ckpt.torn",
    "coreset.sample",   "coreset.assign",
    "shard.plan",       "shard.solve",        "shard.merge",
};

/// Algorithms weighted toward the chains that exercise the most sites.
const char* const kAlgorithms[] = {
    "resilient", "resilient", "exact_dp", "branch_bound",
    "greedy_cover", "mondrian", "suppress_all",
    "mdav", "mdav+annealing",
    "coreset_mdav", "coreset_cluster_greedy",
    "sharded_mdav", "sharded_cluster_greedy",
};

/// Derives the schedule's fault plan from the seed stream.
FaultPlan DrawFaultPlan(uint64_t seed, Rng* rng) {
  FaultPlan plan;
  plan.seed = seed;
  // Every 4th schedule runs fault-free as a control.
  if (rng->Uniform(4) == 0) return plan;
  static const double kBackgrounds[] = {0.0, 0.01, 0.05};
  plan.default_probability = kBackgrounds[rng->Uniform(3)];
  const int overrides = rng->UniformInt(1, 4);
  for (int i = 0; i < overrides; ++i) {
    FaultSiteSpec spec;
    spec.site = kOverridableSites[rng->Uniform(
        sizeof(kOverridableSites) / sizeof(kOverridableSites[0]))];
    if (rng->Bernoulli(0.3)) {
      spec.first_n = static_cast<uint64_t>(rng->UniformInt(1, 3));
    } else {
      spec.probability = 0.05 + 0.45 * rng->UniformDouble();
    }
    plan.sites.push_back(std::move(spec));
  }
  // Stall/slow are drawn separately (never via the background
  // probability): a stall wedges the worker until the watchdog breaks
  // the loop, and its first_n count is what invariant 6 reconciles
  // against.
  for (const char* site : {"worker.stall", "worker.slow"}) {
    const bool armed = rng->Bernoulli(0.25);
    const auto first_n = static_cast<uint64_t>(rng->UniformInt(1, 2));
    if (armed) plan.sites.push_back({.site = site, .first_n = first_n});
  }
  return plan;
}

/// Invariant 5 runner: re-executes `prepared` from `snapshot` on a
/// fresh context. The node budget (no wall clock) keeps the re-run a
/// pure function of the snapshot, and the chain contract still
/// guarantees an answer if it trips.
AnonymizeResponse ResumeOnce(const AnonymizeRequest& prepared,
                             const SolverSnapshot& snapshot) {
  AnonymizeRequest request = prepared;
  request.resume_solver = snapshot.solver;
  request.resume_payload = snapshot.payload;
  RunContext ctx;
  ctx.set_node_budget(200000);
  return WorkerPool::Execute(request, &ctx, /*cache=*/nullptr);
}

/// Invariant 3: any byte prefix of the journal must replay cleanly
/// (intact records plus at most one torn tail).
void CheckCrashPrefixes(const std::string& path, Rng* rng, const Leg& leg) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  if (bytes.empty()) return;

  const std::string cut_path = path + ".cut";
  for (int i = 0; i < 4; ++i) {
    const size_t cut =
        1 + static_cast<size_t>(
                rng->Uniform(static_cast<uint32_t>(bytes.size())));
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(cut_path);
    if (!replay.ok()) {
      leg.Violation(3, "journal prefix of " + std::to_string(cut) +
                           " bytes does not replay: " +
                           replay.status().message());
    }
  }
  ::unlink(cut_path.c_str());
}

/// Invariants 4 and 5: audits what the schedule left in `store`.
void AuditSnapshots(CheckpointStore& store, const JobBatch& batch,
                    const Leg& leg) {
  size_t resumes = 0;
  for (const uint64_t id : store.List()) {
    const std::string snapshot = "snapshot " + std::to_string(id);
    StatusOr<SolverSnapshot> loaded = store.Load(id);
    if (!loaded.ok()) {
      // Injected torn writes leave garbage behind; the contract is a
      // *typed* refusal, never a crash or a silent restore.
      const StatusCode code = loaded.status().code();
      if (code != StatusCode::kDataLoss && code != StatusCode::kParseError &&
          code != StatusCode::kNotFound) {
        leg.Violation(4, snapshot + " failed untyped: " +
                             loaded.status().ToString());
      }
      continue;
    }
    const auto ticket = std::find_if(
        batch.tickets.begin(), batch.tickets.end(),
        [id](const JobQueue::Ticket& t) { return t.id == id; });
    if (ticket == batch.tickets.end()) {
      leg.Violation(4, snapshot + " does not belong to any job");
      continue;
    }
    const AnonymizeRequest& request =
        batch.requests[ticket - batch.tickets.begin()];
    if (loaded->table_fp != TableFingerprint(*request.table) ||
        loaded->k != request.k) {
      leg.Violation(4, snapshot + " carries a stamp for a different job");
      continue;
    }
    // Resumes re-solve, so cap how many are checked.
    if (resumes++ >= 4) continue;
    const AnonymizeResponse first = ResumeOnce(request, *loaded);
    const AnonymizeResponse second = ResumeOnce(request, *loaded);
    if (!first.ok() || !second.ok()) {
      leg.Violation(5, "resume of " + snapshot + " failed: " +
                           (first.ok() ? second : first).status.ToString());
    } else if (first.cost != second.cost ||
               first.anonymized_csv != second.anonymized_csv ||
               first.stage != second.stage ||
               first.termination != second.termination) {
      leg.Violation(5, "resume of " + snapshot +
                           " is nondeterministic (cost " +
                           std::to_string(first.cost) + " vs " +
                           std::to_string(second.cost) + ")");
    } else {
      const std::string wrong = AnswerViolation(
          *request.table, request.k, first.anonymized_csv, first.cost);
      if (!wrong.empty()) {
        leg.Violation(5, "resumed " + snapshot + ": " + wrong);
      }
    }
  }
}

}  // namespace

void RunServiceLeg(const ChaosOptions& options, const Leg& leg) {
  Rng rng(options.seed, /*stream=*/0x6368616f73ull);  // "chaos"
  uint64_t& fp = leg.report->digest;

  // Disarmed (reset) before the invariant 4-6 audit, so snapshot loads
  // and resume re-runs see a quiet fault layer.
  std::optional<ScopedFaultInjection> injection;
  injection.emplace(DrawFaultPlan(options.seed, &rng));

  const std::string prefix =
      options.scratch_dir + "/kanon_chaos_" +
      std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
      std::to_string(options.seed);
  const std::string journal_path = prefix + ".journal";
  CheckpointStore store(prefix + ".ckpt");
  (void)store.Clear();  // leftovers from a killed prior run
  // Declared before the pool: workers Watch/Unwatch through it.
  Watchdog watchdog(WatchdogOptions{.scan_interval_ms = 20.0,
                                    .stall_ms = 300.0});
  ::unlink(journal_path.c_str());
  auto journal = std::make_unique<JobJournal>(journal_path);

  QueueOptions queue_options;
  queue_options.capacity = std::max<size_t>(4, options.jobs * 3 / 4);
  queue_options.observer = journal.get();
  JobQueue queue(queue_options);
  ResultCache cache(16);

  JobBatch batch = SubmitJobs(&queue, options.jobs, kAlgorithms, &rng, leg);
  // Cancels land before the worker starts, so the race they model is
  // queue-level (cancel vs dispatch), replayed identically every run.
  for (const JobQueue::Ticket& ticket : batch.tickets) {
    if (rng.Bernoulli(0.15)) queue.Cancel(ticket.id);
  }
  // A tight poll cadence so short jobs still emit snapshots, kept on
  // completion so invariants 4 and 5 can examine them afterwards.
  const std::vector<AnonymizeResponse> responses = CollectJobs(
      &queue, &cache,
      {.checkpoints = &store,
       .checkpoint_every_polls = 2,
       .keep_checkpoints = true,
       .watchdog = &watchdog},
      &batch, leg);

  // Admission follows the seeded submit order, retries and checkpoint
  // emission are hit- and poll-counted, preemptions follow the fault
  // plan, and coreset and shard activity is seed-deterministic under
  // the pinned schedule, so the whole registry belongs in the digest.
  leg.report->fires = FaultRegistry::Instance().TotalFires();
  const uint64_t stall_fires = SiteFires("worker.stall");
  fp = FoldFaultLedger(fp);
  fp = FoldMetrics(fp, queue.metrics());

  journal.reset();  // close the fd before reading
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(journal_path);
  if (!replay.ok()) {
    leg.Violation(3, "journal does not replay: " + replay.status().message());
  }
  CheckCrashPrefixes(journal_path, &rng, leg);
  ::unlink(journal_path.c_str());

  // The audit below runs with faults disarmed: it must not be sabotaged
  // by the plan it is auditing.
  injection.reset();
  watchdog.Stop();

  // Invariant 6: one watchdog trip, one pool counter bump and one typed
  // answer per stall fire; slow-but-heartbeating jobs add to none.
  const uint64_t pool_preempted =
      queue.metrics().Get(Counter::kWatchdogPreempted);
  const uint64_t preempted_answers = static_cast<uint64_t>(std::count_if(
      responses.begin(), responses.end(), [](const AnonymizeResponse& r) {
        return r.error == ServiceError::kWatchdogPreempted;
      }));
  if (watchdog.preemptions() != stall_fires || pool_preempted != stall_fires ||
      preempted_answers != stall_fires) {
    leg.Violation(6, "stall fires=" + std::to_string(stall_fires) +
                         " preemptions=" +
                         std::to_string(watchdog.preemptions()) +
                         " pool counter=" + std::to_string(pool_preempted) +
                         " typed answers=" +
                         std::to_string(preempted_answers));
  }

  AuditSnapshots(store, batch, leg);
  (void)store.Clear();
  ::rmdir(store.dir().c_str());
}

}  // namespace chaos
}  // namespace kanon
