#include "service/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "algo/fallback.h"
#include "algo/registry.h"
#include "data/csv_table.h"
#include "fault/fault.h"
#include "service/overload/overload.h"
#include "util/fingerprint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace kanon {

namespace {

/// The wrapper knobs a request resolves to (0-valued fields fall back to
/// the subsystem defaults, see coreset/sampler.h and algo/shard_plan.h).
AlgorithmKnobs KnobsFor(const AnonymizeRequest& request) {
  AlgorithmKnobs knobs;
  if (request.coreset_rate > 0.0) {
    knobs.coreset.sample_rate = request.coreset_rate;
  }
  if (request.coreset_seed != 0) knobs.coreset.seed = request.coreset_seed;
  knobs.shard.shards = request.shards;
  knobs.shard.shard_parallelism = request.shard_parallelism;
  return knobs;
}

/// The chain a request runs: `algorithm -> suppress_all`, ending in the
/// unconditionally-feasible stage so *every* job yields a valid
/// partition ("resilient" keeps its default chain). Every stage is built
/// with the request's knobs.
FallbackOptions ChainFor(const std::string& algorithm,
                         const AlgorithmKnobs& knobs, StageGate* gate) {
  FallbackOptions options;
  options.gate = gate;
  options.make_stage = [knobs](const std::string& stage) {
    return MakeAnonymizer(stage, knobs);
  };
  if (algorithm == "resilient") return options;
  options.stages = {algorithm};
  if (algorithm != "suppress_all") options.stages.push_back("suppress_all");
  return options;
}

/// FallbackAnonymizer notes look like "chain=a(ok)->b(...) [inner]";
/// extract the machine-readable chain token.
std::string ExtractChain(const std::string& notes) {
  constexpr std::string_view kPrefix = "chain=";
  const size_t start = notes.find(kPrefix);
  if (start == std::string::npos) return "";
  const size_t begin = start + kPrefix.size();
  const size_t end = notes.find(' ', begin);
  return notes.substr(begin, end == std::string::npos ? end : end - begin);
}

/// Per-dispatch sink: stamps each solver payload with the job's
/// identity, persists it durably, and only then journals the `ckpt`
/// record — so a journaled checkpoint always points at bytes on disk
/// (the reverse tear merely loses the resume).
class JobCheckpointSink : public CheckpointSink {
 public:
  JobCheckpointSink(CheckpointStore* store, JobObserver* observer,
                    uint64_t job_id, uint64_t table_fp, uint64_t k,
                    Metrics* metrics)
      : store_(store),
        observer_(observer),
        job_id_(job_id),
        table_fp_(table_fp),
        k_(k),
        metrics_(metrics) {}

  /// Thread-safe: emissions normally arrive serialized (the sharded
  /// wrapper checkpoint-isolates its shard threads and is the single
  /// writer for the job), but the sink must not turn a future caller's
  /// slip into UB — the sequence counter is atomic and captured locally
  /// so the journaled seq matches the saved snapshot.
  Status Persist(std::string_view solver,
                 const std::string& payload) override {
    SolverSnapshot snapshot;
    snapshot.solver = std::string(solver);
    snapshot.table_fp = table_fp_;
    snapshot.k = k_;
    const uint64_t seq =
        seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    snapshot.seq = seq;
    snapshot.payload = payload;
    const Status status = store_->Save(job_id_, snapshot);
    if (status.ok()) {
      metrics_->Add(Counter::kCheckpoints);
      if (observer_ != nullptr) observer_->OnCheckpoint(job_id_, seq);
    } else {
      metrics_->Add(Counter::kCheckpointFailures);
    }
    return status;
  }

 private:
  CheckpointStore* const store_;
  JobObserver* const observer_;
  const uint64_t job_id_;
  const uint64_t table_fp_;
  const uint64_t k_;
  Metrics* const metrics_;
  std::atomic<uint64_t> seq_{0};
};

}  // namespace

AnonymizeResponse WorkerPool::Execute(const AnonymizeRequest& request,
                                      RunContext* ctx, ResultCache* cache,
                                      StageGate* gate) {
  KANON_CHECK(request.table.has_value())
      << "Execute requires a prepared request (ValidateAndPrepare)";
  WallTimer timer;
  const Table& table = *request.table;

  if (!request.resume_solver.empty()) {
    // Journal replay recovered a durable snapshot for this job: install
    // it so the named solver (running under this ctx or a chain child)
    // continues from it. Solvers re-validate the payload themselves and
    // start cold on any mismatch.
    ctx->SetResume(request.resume_solver, request.resume_payload);
  }

  AnonymizeResponse response;
  response.algorithm = request.algorithm;
  response.k = request.k;
  response.rows = table.num_rows();

  CacheKey key;
  key.table_fp = TableFingerprint(table);
  key.algorithm = request.algorithm;
  key.k = request.k;
  // A different cut or sample is a different answer, so the key folds
  // in the option set of every wrapper kind the name contains (a plain
  // name keys on 0: the knobs cannot change its answer).
  const AlgorithmName name = ParseAlgorithmName(request.algorithm).value();
  const AlgorithmKnobs knobs = KnobsFor(request);
  const bool sharded = name.Has(AlgorithmWrapper::kSharded);
  if (sharded) key.knobs_fp = knobs.shard.Fingerprint();
  if (name.Has(AlgorithmWrapper::kCoreset)) {
    const uint64_t coreset_fp = knobs.coreset.Fingerprint();
    key.knobs_fp =
        sharded ? FingerprintInt(key.knobs_fp, coreset_fp) : coreset_fp;
  }
  if (request.brownout_level > 0) {
    // Brownout stamp: a degraded result must never answer a
    // full-fidelity request — not even one for the same effective
    // backend, so operators can flush browned-out entries by level.
    key.knobs_fp = FingerprintInt(
        FingerprintInt(key.knobs_fp, 0x62726f776eull),  // "brown"
        static_cast<uint64_t>(request.brownout_level));
  }
  response.brownout = request.brownout_level;
  // An injected lookup fault forces a miss: the answer is recomputed,
  // which is always safe (degraded performance, never a wrong result).
  if (cache != nullptr && !KANON_FAULT_POINT("cache.lookup")) {
    if (std::optional<CachedResult> cached = cache->Lookup(key)) {
      response.cache_hit = true;
      response.cost = cached->cost;
      response.stage = cached->stage;
      response.chain = cached->chain;
      response.termination = cached->termination;
      if (request.emit_csv) {
        response.anonymized_csv = std::move(cached->anonymized_csv);
      }
      response.run_ms = timer.Millis();
      return response;
    }
  }

  if (ctx->cancel_requested()) {
    response.error = ServiceError::kCancelled;
    response.status =
        MakeServiceStatus(response.error, "cancelled before execution");
    response.run_ms = timer.Millis();
    return response;
  }

  FallbackAnonymizer chain(ChainFor(request.algorithm, knobs, gate));
  AnonymizationResult result = chain.Run(table, request.k, ctx);
  response.cost = result.cost;
  response.stage = result.stage;
  response.termination = result.termination;
  response.chain = ExtractChain(result.notes);

  // Cache only deterministic outcomes: full completions, and chains
  // degraded purely by *structural* caps (latched as kBudget when the
  // request set no budget and the job's own context never tripped) —
  // those replay identically for every future request on this instance.
  // Deadline, cancellation and request-budget artifacts do not, nor do
  // answers after a breaker skip, which follow other requests' failures.
  const bool deterministic_outcome =
      (result.completed() ||
       (result.termination == StopReason::kBudget &&
        request.node_budget == 0 &&
        ctx->stop_reason() == StopReason::kNone)) &&
      response.chain.find("(skipped:breaker)") == std::string::npos;
  // The CSV payload is also what the cache stores, so materialize it
  // whenever either consumer needs it.
  const bool cacheable = cache != nullptr && deterministic_outcome;
  std::string csv;
  if (request.emit_csv || cacheable) {
    csv = TableToCsv(result.MakeSuppressor(table).Apply(table));
  }
  if (cacheable) {
    CachedResult entry;
    entry.partition = result.partition;
    entry.cost = result.cost;
    entry.stage = result.stage;
    entry.chain = response.chain;
    entry.termination = result.termination;
    entry.anonymized_csv = csv;
    // An injected poison flips the entry to a deadline artifact right at
    // the insert boundary — the cache's own taint guard must catch it.
    if (KANON_FAULT_POINT("cache.poison")) {
      entry.termination = StopReason::kDeadline;
    }
    cache->Insert(key, std::move(entry));
  }
  if (request.emit_csv) response.anonymized_csv = std::move(csv);
  response.run_ms = timer.Millis();
  return response;
}

WorkerPool::WorkerPool(JobQueue* queue, ResultCache* cache,
                       WorkerPoolOptions options)
    : queue_(queue),
      cache_(cache),
      retry_(options.retry),
      breakers_(options.breaker),
      checkpoints_(options.checkpoints),
      checkpoint_every_polls_(options.checkpoint_every_polls),
      checkpoint_every_ms_(options.checkpoint_every_ms),
      keep_checkpoints_(options.keep_checkpoints),
      watchdog_(options.watchdog),
      overload_(options.overload) {
  KANON_CHECK(queue != nullptr);
  const unsigned n =
      options.workers > 0 ? options.workers : GetParallelism();
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Join(); }

void WorkerPool::Join() {
  queue_->Close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

AnonymizeResponse WorkerPool::ExecuteWithRetry(const Job& job) {
  // Deterministic per-job backoff schedule: the Rng is seeded from the
  // job id, so a chaos seed replays identical waits.
  Rng rng(RetrySeedForJob(job.id));
  double prev_backoff_ms = 0.0;
  const int attempts = std::max(retry_.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    // An injected dispatch fault is a worker dying *before* it ran the
    // job; an injected delivery fault is one dying *after*, result lost.
    // Both void the attempt and land in the same retry path.
    bool faulted = KANON_FAULT_POINT("worker.dispatch");
    AnonymizeResponse response;
    if (!faulted) {
      // An injected *stall* wedges this worker with zero heartbeat
      // advance until the watchdog preempts it — only armed when a
      // watchdog exists to break the loop and the job is not already
      // cancelled (so the fault fires at most once per job and every
      // fire is answered by exactly one preemption).
      if (watchdog_ != nullptr && !job.ctx->cancel_requested() &&
          KANON_FAULT_POINT("worker.stall")) {
        while (!job.ctx->cancel_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      // An injected *slow* fault drags its feet but keeps polling —
      // heartbeats advance, so the watchdog must leave it alone.
      if (KANON_FAULT_POINT("worker.slow")) {
        for (int i = 0; i < 5 && !job.ctx->cancel_requested(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          (void)job.ctx->ShouldStop();
        }
      }
      response = Execute(job.request, job.ctx.get(), cache_, &breakers_);
      faulted = KANON_FAULT_POINT("worker.deliver");
    }
    if (job.ctx->preempt_requested()) {
      // A watchdog preemption is not retried in place: the job burned
      // its stall bound once already, and the typed error tells the
      // caller exactly what happened.
      queue_->metrics().Add(Counter::kWatchdogPreempted);
      AnonymizeResponse preempted;
      preempted.algorithm = job.request.algorithm;
      preempted.k = job.request.k;
      preempted.error = ServiceError::kWatchdogPreempted;
      preempted.status = MakeServiceStatus(
          preempted.error,
          "watchdog preempted job " + std::to_string(job.id) +
              " after a progress stall");
      return preempted;
    }
    if (!faulted) return response;
    if (attempt >= attempts) {
      queue_->metrics().Add(Counter::kRetriesExhausted);
      AnonymizeResponse failure;
      failure.algorithm = job.request.algorithm;
      failure.k = job.request.k;
      failure.error = ServiceError::kWorkerFailure;
      failure.status = MakeServiceStatus(
          failure.error, "worker failed " + std::to_string(attempts) +
                             " times; retry budget exhausted");
      return failure;
    }
    if (overload_ != nullptr && !overload_->AllowRetry()) {
      // The pool-wide retry budget is dry: re-running the job would
      // amplify whatever storm drained it. Degrade straight to the
      // terminal stage — still a valid (maximally suppressed) answer,
      // with the budget exhaustion recorded as a typed chain note.
      queue_->metrics().Add(Counter::kOverloadRetryDenied);
      AnonymizeRequest terminal = job.request;
      terminal.algorithm = "suppress_all";
      terminal.resume_solver.clear();
      terminal.resume_payload.clear();
      // Never cached: this outcome is an artifact of the pool's retry
      // budget at this instant, not a property of the instance.
      AnonymizeResponse degraded =
          Execute(terminal, job.ctx.get(), /*cache=*/nullptr);
      degraded.algorithm = job.request.algorithm;
      degraded.effective_algorithm = "suppress_all";
      degraded.chain = job.request.algorithm +
                       "(declined:retry_budget)->suppress_all(ok)";
      return degraded;
    }
    queue_->metrics().Add(Counter::kRetries);
    prev_backoff_ms = NextBackoffMillis(retry_, prev_backoff_ms, rng);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(prev_backoff_ms));
  }
}

void WorkerPool::WorkerLoop() {
  JobObserver* const observer = queue_->observer();
  while (std::optional<Job> job = queue_->Pop()) {
    const double queue_ms =
        std::chrono::duration<double, std::milli>(
            RunContext::Clock::now() - job->enqueue_time)
            .count();
    if (observer != nullptr) observer->OnStart(job->id);
    const std::string requested_algorithm = job->request.algorithm;
    RewriteDecision brownout;
    bool infeasible = false;
    if (overload_ != nullptr) {
      // Dequeue sojourn is the overload plane's primary signal: it
      // feeds the CoDel controller (admission) and, with the breaker
      // board state, the brownout governor.
      int open_breakers = 0;
      for (const auto& [stage, state] : breakers_.Snapshot()) {
        if (state == StageBreaker::State::kOpen) ++open_breakers;
      }
      overload_->OnDequeue(queue_ms, OverloadControl::SteadyNowMillis(),
                           open_breakers);
      // Deadline reconciliation: the remaining budget is the wire
      // deadline minus the queue delay already burned. A job that
      // cannot fit even the optimistic solve estimate is answered
      // typed *now*, before it occupies this worker at full cost.
      if (job->deadline != RunContext::Clock::time_point::max()) {
        const double remaining_ms =
            std::chrono::duration<double, std::milli>(
                job->deadline - RunContext::Clock::now())
                .count();
        infeasible = overload_->DeadlineInfeasible(requested_algorithm,
                                                   remaining_ms);
      }
      if (!infeasible) {
        brownout = overload_->MaybeRewrite(job->id, requested_algorithm,
                                           job->request.coreset_rate);
        if (brownout.rewritten) {
          queue_->metrics().Add(Counter::kOverloadBrownouts);
          job->request.algorithm = brownout.effective;
          if (brownout.coreset_rate > 0.0) {
            job->request.coreset_rate = brownout.coreset_rate;
          }
          job->request.brownout_level = static_cast<int>(brownout.level);
          // A snapshot of the full-fidelity backend must not warm-start
          // the degraded one.
          job->request.resume_solver.clear();
          job->request.resume_payload.clear();
        }
      }
    }
    AnonymizeResponse response;
    if (infeasible) {
      queue_->metrics().Add(Counter::kOverloadInfeasible);
      response.algorithm = requested_algorithm;
      response.k = job->request.k;
      response.error = ServiceError::kDeadlineInfeasible;
      response.status = MakeServiceStatus(
          response.error,
          "job " + std::to_string(job->id) +
              " cannot finish inside its deadline (queue delay " +
              std::to_string(queue_ms) + " ms ate the budget)");
    } else {
      std::optional<JobCheckpointSink> sink;
      if (checkpoints_ != nullptr && job->request.table.has_value()) {
        sink.emplace(checkpoints_, observer, job->id,
                     TableFingerprint(*job->request.table),
                     job->request.k, &queue_->metrics());
        job->ctx->ArmCheckpoints(&*sink, checkpoint_every_polls_,
                                 checkpoint_every_ms_);
      }
      if (watchdog_ != nullptr) watchdog_->Watch(job->id, job->ctx);
      response = ExecuteWithRetry(*job);
      if (watchdog_ != nullptr) watchdog_->Unwatch(job->id);
      if (sink.has_value()) {
        job->ctx->DisarmCheckpoints();
        // The job is answered: its snapshot no longer buys anything (a
        // crash from here replays it as done). Reclaim unless a test or
        // operator asked to keep snapshots for inspection.
        if (!keep_checkpoints_) (void)checkpoints_->Remove(job->id);
      }
      if (brownout.rewritten && response.ok()) {
        // Answers report the *requested* algorithm plus the effective
        // backend the ladder substituted (unless the retry-budget path
        // already degraded further).
        response.algorithm = requested_algorithm;
        if (response.effective_algorithm.empty()) {
          response.effective_algorithm = brownout.effective;
        }
        response.brownout = static_cast<int>(brownout.level);
      }
      if (overload_ != nullptr) {
        overload_->RecordOutcome(job->request.algorithm, response.run_ms,
                                 response.ok(), response.cache_hit);
      }
    }
    response.id = job->id;
    response.queue_ms = queue_ms;
    queue_->metrics().Add(Counter::kCompleted);
    if (response.cache_hit) queue_->metrics().Add(Counter::kCacheServed);
    if (response.error == ServiceError::kCancelled) {
      queue_->metrics().Add(Counter::kCancelled);
    }
    // Journal the outcome before the caller can observe it: a crash
    // after set_value but before the append would leave a job the
    // client saw answered marked interrupted at replay — the safe
    // direction is the reverse.
    if (observer != nullptr) observer->OnDone(job->id, response);
    // The completion callback fires after the journal append (the
    // outcome is durable) and before set_value consumes the response.
    if (job->on_done) job->on_done(response);
    queue_->Forget(job->id);
    job->promise.set_value(std::move(response));
  }
}

}  // namespace kanon
