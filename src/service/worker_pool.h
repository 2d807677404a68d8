#ifndef KANON_SERVICE_WORKER_POOL_H_
#define KANON_SERVICE_WORKER_POOL_H_

#include <cstdint>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "service/breaker.h"
#include "service/cache.h"
#include "service/queue.h"
#include "service/retry.h"
#include "service/watchdog.h"

/// \file
/// Worker pool draining the job queue.
///
/// Each of the N workers loops: pop the best job, serve it from the
/// result cache if the instance was already solved, otherwise run the
/// registry-selected algorithm *inside the resilient fallback chain*
/// (algo/fallback.h) under the job's RunContext. The chain is what lets
/// a multi-tenant server make a hard promise despite NP-hard workloads:
/// every admitted job gets a valid k-anonymous answer — degraded to a
/// cheaper stage when its deadline/budget runs out — and the response
/// records the per-stage outcomes (`chain`) and the producing `stage`.

namespace kanon {

class OverloadControl;

struct WorkerPoolOptions {
  /// Worker-thread count; 0 means GetParallelism() (util/parallel.h).
  unsigned workers = 0;
  /// In-place retry budget for transient worker faults.
  RetryPolicy retry;
  /// Tuning for the per-stage circuit breakers (see service/breaker.h).
  BreakerOptions breaker;
  /// Durable snapshot store (not owned; may be null = checkpointing
  /// off). When set, each dispatched job's RunContext is armed with a
  /// sink that stamps snapshots with the job's table fingerprint and k,
  /// persists them here, and journals a `ckpt` record after each
  /// durable write.
  CheckpointStore* checkpoints = nullptr;
  /// Snapshot cadence: every N solver cadence polls / every T ms
  /// (whichever knob is non-zero; see RunContext::ArmCheckpoints).
  uint64_t checkpoint_every_polls = 256;
  double checkpoint_every_ms = 0.0;
  /// Keep a completed job's snapshot instead of removing it (tests and
  /// post-mortem inspection; the daemon removes by default).
  bool keep_checkpoints = false;
  /// Stuck-worker monitor (not owned; may be null = no watchdog).
  /// Dispatched jobs are watched for the duration of execution.
  Watchdog* watchdog = nullptr;
  /// Overload-control plane (not owned; may be null = no overload
  /// control). When set, each dequeue feeds the CoDel controller and
  /// governor, jobs whose deadline cannot fit the backend's optimistic
  /// solve-time estimate are rejected typed (deadline_infeasible)
  /// before any solve work, admissible jobs may be rewritten to a
  /// cheaper backend by the brownout ladder, and in-place retries draw
  /// from the pool-wide retry budget (exhaustion degrades the job to
  /// the terminal stage instead of amplifying load).
  class OverloadControl* overload = nullptr;
};

/// N threads executing jobs from a JobQueue. The pool does not own the
/// queue or cache; both must outlive it. Destruction closes the queue
/// (idempotent) and joins the workers.
class WorkerPool {
 public:
  /// Spawns the workers immediately. `cache` may be null (no caching).
  WorkerPool(JobQueue* queue, ResultCache* cache,
             WorkerPoolOptions options = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Closes the queue and blocks until every worker has exited (all
  /// popped jobs fulfilled). Idempotent.
  void Join();

  unsigned num_workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// The shared per-stage circuit breakers (for stats reporting).
  const BreakerBoard& breakers() const { return breakers_; }

  /// The per-job execution core (cache lookup -> chain run -> cache
  /// fill), exposed for direct use in tests and single-threaded tools.
  /// `request` must have been through ValidateAndPrepare; `ctx` carries
  /// the job's deadline/budget/cancellation; `cache` may be null;
  /// `gate` optionally gates non-final chain stages (breakers).
  static AnonymizeResponse Execute(const AnonymizeRequest& request,
                                   RunContext* ctx, ResultCache* cache,
                                   StageGate* gate = nullptr);

 private:
  void WorkerLoop();

  /// Execute under the retry policy: an injected dispatch or delivery
  /// fault voids the attempt, and the worker retries in place after a
  /// decorrelated-jitter backoff; an exhausted budget yields a typed
  /// worker_failure response.
  AnonymizeResponse ExecuteWithRetry(const Job& job);

  JobQueue* const queue_;
  ResultCache* const cache_;
  const RetryPolicy retry_;
  BreakerBoard breakers_;
  CheckpointStore* const checkpoints_;
  const uint64_t checkpoint_every_polls_;
  const double checkpoint_every_ms_;
  const bool keep_checkpoints_;
  Watchdog* const watchdog_;
  OverloadControl* const overload_;
  std::vector<std::thread> threads_;
};

}  // namespace kanon

#endif  // KANON_SERVICE_WORKER_POOL_H_
