#include "service/queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/fault.h"
#include "service/overload/overload.h"
#include "util/logging.h"

namespace kanon {

namespace {

/// True iff `a` should be dispatched before `b`: higher priority first,
/// then earlier deadline, then lower id (FIFO).
bool DispatchBefore(const Job& a, const Job& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.id < b.id;
}

/// The priority bar at occupancy `fraction` (depth / capacity before
/// insert): linear ramp from 1 at shed_start to shed_levels - 1 at 1.0.
int RequiredPriority(double fraction, const QueueOptions& options) {
  const double start = options.shed_start_fraction;
  if (fraction < start || start >= 1.0) return 0;
  const double ramp = (fraction - start) / (1.0 - start);
  const int levels = std::max(options.shed_levels, 2);
  return 1 + static_cast<int>(std::floor(ramp * (levels - 1)));
}

}  // namespace

JobQueue::JobQueue(QueueOptions options) : options_(options) {
  KANON_CHECK_GE(options.capacity, 1u)
      << "a zero-capacity queue admits nothing";
}

JobQueue::JobQueue(size_t capacity)
    : JobQueue(QueueOptions{.capacity = capacity}) {}

StatusOr<JobQueue::Ticket> JobQueue::Submit(
    AnonymizeRequest request, ServiceError* error,
    std::function<void(const AnonymizeResponse&)> on_done) {
  KANON_CHECK(error != nullptr);
  *error = ServiceError::kNone;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    metrics_.Add(Counter::kRejected);
    *error = ServiceError::kShuttingDown;
    return MakeServiceStatus(*error, "service is shutting down");
  }
  if (KANON_FAULT_POINT("queue.admit")) {
    metrics_.Add(Counter::kRejected);
    *error = ServiceError::kQueueFull;
    return MakeServiceStatus(*error, "injected admission failure");
  }
  if (jobs_.size() >= options_.capacity) {
    metrics_.Add(Counter::kRejected);
    *error = ServiceError::kQueueFull;
    return MakeServiceStatus(
        *error,
        "job queue at capacity (" + std::to_string(options_.capacity) +
            " queued); retry with backoff");
  }
  if (options_.overload != nullptr &&
      options_.overload->ShouldShed(OverloadControl::SteadyNowMillis())) {
    metrics_.Add(Counter::kRejected);
    metrics_.Add(Counter::kShed);
    metrics_.Add(Counter::kOverloadShed);
    *error = ServiceError::kShedOverload;
    return MakeServiceStatus(
        *error,
        "overload shed: queue delay above target; retry with backoff");
  }
  const double occupancy = static_cast<double>(jobs_.size()) /
                           static_cast<double>(options_.capacity);
  const int required = RequiredPriority(occupancy, options_);
  // required == 0 means the queue is calm: no bar at all, so even
  // negative-priority work is admitted.
  if (required > 0 && request.priority < required) {
    metrics_.Add(Counter::kRejected);
    metrics_.Add(Counter::kShed);
    *error = ServiceError::kShedLowPriority;
    return MakeServiceStatus(
        *error, "queue under pressure (occupancy " +
                    std::to_string(jobs_.size()) + "/" +
                    std::to_string(options_.capacity) +
                    "); priority >= " + std::to_string(required) +
                    " required");
  }

  Job job;
  job.id = next_id_++;
  job.priority = request.priority;
  job.enqueue_time = RunContext::Clock::now();
  job.ctx = std::make_shared<RunContext>();
  job.ctx->set_metrics(&metrics_);
  if (request.deadline_ms > 0.0) {
    job.ctx->set_deadline_after_millis(request.deadline_ms);
    job.deadline =
        job.enqueue_time +
        std::chrono::duration_cast<RunContext::Clock::duration>(
            std::chrono::duration<double, std::milli>(request.deadline_ms));
  } else {
    job.deadline = RunContext::Clock::time_point::max();
  }
  if (request.node_budget > 0) {
    job.ctx->set_node_budget(request.node_budget);
  }
  job.request = std::move(request);
  job.on_done = std::move(on_done);

  Ticket ticket;
  ticket.id = job.id;
  ticket.result = job.promise.get_future();
  live_.emplace(job.id, job.ctx);
  // Journal the admission *before* the job becomes poppable: a crash
  // after this point finds the job in the journal, never a worker
  // running a job the journal has no record of.
  if (options_.observer != nullptr) options_.observer->OnAdmit(job);
  jobs_.push_back(std::move(job));
  metrics_.Add(Counter::kAccepted);
  ready_.notify_one();
  return ticket;
}

std::optional<Job> JobQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
  if (jobs_.empty()) return std::nullopt;  // closed and drained
  auto best = jobs_.begin();
  for (auto it = std::next(best); it != jobs_.end(); ++it) {
    if (DispatchBefore(*it, *best)) best = it;
  }
  Job job = std::move(*best);
  jobs_.erase(best);
  return job;
}

JobObserver* JobQueue::observer() const { return options_.observer; }

bool JobQueue::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second->RequestCancel();
  if (options_.observer != nullptr) options_.observer->OnCancel(id);
  return true;
}

void JobQueue::Forget(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(id);
}

void JobQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  ready_.notify_all();
}

size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

}  // namespace kanon
