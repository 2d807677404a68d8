#ifndef KANON_SERVICE_QUEUE_H_
#define KANON_SERVICE_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "service/request.h"
#include "util/metrics.h"
#include "util/run_context.h"

/// \file
/// Bounded priority job queue with admission control.
///
/// Backpressure is the first line of defense of an NP-hard-workload
/// server: once the queue is at capacity, new work is *rejected at the
/// door* with kResourceExhausted instead of being buffered into an
/// unbounded backlog whose deadlines are already lost. Dispatch order is
/// priority first (higher runs sooner), then oldest-deadline-first
/// (the request with the least slack goes next; no-deadline requests
/// sort last), then FIFO.
///
/// Every admitted job owns a RunContext created at admission: the
/// request's deadline starts ticking *then* (queue wait counts — an
/// expired job degrades to the terminal fallback stage rather than
/// occupying a worker at full cost), and Cancel(id) works uniformly
/// whether the job is still queued or already running on a worker.

namespace kanon {

/// One admitted unit of work, handed from JobQueue::Submit to a worker.
struct Job {
  uint64_t id = 0;
  AnonymizeRequest request;
  /// Execution-control context: deadline/budget armed at admission;
  /// JobQueue::Cancel(id) requests cancellation through it.
  std::shared_ptr<RunContext> ctx;
  RunContext::Clock::time_point enqueue_time{};
  /// Absolute deadline (time_point::max() when the request had none).
  RunContext::Clock::time_point deadline{};
  int priority = 0;
  /// Fulfilled by the worker with the job's AnonymizeResponse.
  std::promise<AnonymizeResponse> promise;
  /// Optional completion callback, invoked by the worker on its own
  /// thread right before the promise is fulfilled. The TCP front end
  /// uses it to push answers back into its event loop without parking a
  /// thread per in-flight job. Must not block and must not call back
  /// into the queue.
  std::function<void(const AnonymizeResponse&)> on_done;
};

/// Lifecycle hooks for admitted jobs. The queue invokes OnAdmit under
/// its lock *before* the job becomes poppable and OnCancel on a
/// successful Cancel(); the worker pool invokes OnStart/OnDone around
/// execution. Implementations (the crash journal) must be fast and must
/// not call back into the queue.
class JobObserver {
 public:
  virtual ~JobObserver() = default;
  virtual void OnAdmit(const Job& job) { (void)job; }
  virtual void OnStart(uint64_t id) { (void)id; }
  virtual void OnDone(uint64_t id, const AnonymizeResponse& response) {
    (void)id;
    (void)response;
  }
  virtual void OnCancel(uint64_t id) { (void)id; }
  /// A snapshot of job `id` became durable; `seq` is the per-job
  /// monotonic snapshot sequence number. Invoked by the worker pool's
  /// checkpoint sink strictly *after* the store write succeeded, so a
  /// journaled checkpoint record always points at bytes that reached
  /// disk.
  virtual void OnCheckpoint(uint64_t id, uint64_t seq) {
    (void)id;
    (void)seq;
  }
};

/// Admission-control knobs. Shedding starts before the hard capacity
/// wall: once occupancy reaches `shed_start_fraction`, low-priority
/// requests are rejected early (kShedLowPriority) so the remaining slots
/// go to work someone deemed urgent. The bar rises with occupancy in
/// `shed_levels` steps: at the start fraction priority >= 1 is required,
/// at a full queue priority >= shed_levels - 1.
struct QueueOptions {
  size_t capacity = 64;
  /// Occupancy (depth / capacity, measured before insert) at which
  /// shedding kicks in; >= 1.0 disables shedding.
  double shed_start_fraction = 0.75;
  /// Number of distinct priority bars between shed start and full.
  int shed_levels = 4;
  /// Optional lifecycle observer (not owned; may be null).
  JobObserver* observer = nullptr;
  /// Optional overload-control plane (not owned; may be null). When
  /// set, Submit consults its CoDel controller *before* the occupancy
  /// bar: sustained above-target queue delay sheds arrivals with the
  /// typed shed_overload error while the queue is still far from full —
  /// delay-based admission replaces depth as the primary signal, and
  /// the occupancy ramp remains only as the hard backstop.
  class OverloadControl* overload = nullptr;
};

/// Thread-safe bounded queue; producers Submit, workers Pop.
class JobQueue {
 public:
  explicit JobQueue(QueueOptions options);

  /// `capacity` >= 1 bounds the number of *queued* (not yet popped) jobs.
  explicit JobQueue(size_t capacity);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admission control. On acceptance assigns an id, arms the job's
  /// RunContext from the request's deadline/budget, stores the job and
  /// returns {id, future-for-the-response}. Rejects with
  /// kResourceExhausted (taxonomy kQueueFull) when full and kCancelled
  /// (kShuttingDown) after Close(); *error is set accordingly.
  struct Ticket {
    uint64_t id = 0;
    std::future<AnonymizeResponse> result;
  };
  /// `on_done`, when non-null, is stored on the job and invoked by the
  /// worker with the final response (see Job::on_done).
  StatusOr<Ticket> Submit(
      AnonymizeRequest request, ServiceError* error,
      std::function<void(const AnonymizeResponse&)> on_done = nullptr);

  /// Blocks for the best queued job (see file comment for the order);
  /// returns nullopt once the queue is closed and drained. The popped
  /// job stays registered for Cancel(id) until Forget(id).
  std::optional<Job> Pop();

  /// Requests cooperative cancellation of a queued or running job.
  /// Returns false when the id is unknown (never admitted, or already
  /// completed and forgotten).
  bool Cancel(uint64_t id);

  /// Drops the id -> RunContext registration of a completed job (called
  /// by the worker after fulfilling the promise).
  void Forget(uint64_t id);

  /// Stops admission and wakes blocked Pop() calls once drained.
  void Close();

  /// Jobs admitted but not yet popped.
  size_t depth() const;

  /// The serving stack's counter registry (util/metrics.h). Admission
  /// counts here, and Submit stamps it on every admitted job's
  /// RunContext, so the pool and the solvers count into it too.
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// The lifecycle observer wired at construction (null when none); the
  /// worker pool uses it to report OnStart/OnDone.
  JobObserver* observer() const;

 private:
  const QueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::vector<Job> jobs_;
  /// Cancellation registry: every admitted, unforgotten job.
  std::unordered_map<uint64_t, std::shared_ptr<RunContext>> live_;
  uint64_t next_id_ = 1;
  bool closed_ = false;
  Metrics metrics_;
};

}  // namespace kanon

#endif  // KANON_SERVICE_QUEUE_H_
