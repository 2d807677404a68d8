#include "service/queue.h"

#include <string>
#include <thread>
#include <vector>

#include "data/csv_table.h"
#include "gtest/gtest.h"

/// \file
/// Admission control and dispatch order of the bounded job queue:
/// reject-with-kResourceExhausted when full, priority then
/// oldest-deadline-first then FIFO dispatch, cancellation through the
/// job's RunContext, and clean close/drain.

namespace kanon {
namespace {

AnonymizeRequest SmallRequest(double deadline_ms = 0.0, int priority = 0) {
  AnonymizeRequest request;
  request.algorithm = "resilient";
  request.k = 2;
  request.deadline_ms = deadline_ms;
  request.priority = priority;
  StatusOr<Table> table = ParseTableCsv("a\n1\n1\n");
  EXPECT_TRUE(table.ok());
  request.table.emplace(*std::move(table));
  return request;
}

TEST(QueueTest, RejectsWhenFullWithResourceExhausted) {
  JobQueue queue(2);
  ServiceError error = ServiceError::kNone;
  ASSERT_TRUE(queue.Submit(SmallRequest(), &error).ok());
  ASSERT_TRUE(queue.Submit(SmallRequest(), &error).ok());

  const StatusOr<JobQueue::Ticket> overflow =
      queue.Submit(SmallRequest(), &error);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(error, ServiceError::kQueueFull);

  EXPECT_EQ(queue.metrics().Get(Counter::kAccepted), 2u);
  EXPECT_EQ(queue.metrics().Get(Counter::kRejected), 1u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(QueueTest, PopDrainsAdmittedJobsThenBlocksUntilClose) {
  JobQueue queue(4);
  ServiceError error = ServiceError::kNone;
  ASSERT_TRUE(queue.Submit(SmallRequest(), &error).ok());
  EXPECT_TRUE(queue.Pop().has_value());

  queue.Close();
  EXPECT_FALSE(queue.Pop().has_value());  // closed and drained

  // Admission after Close is a typed rejection.
  const StatusOr<JobQueue::Ticket> late =
      queue.Submit(SmallRequest(), &error);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(error, ServiceError::kShuttingDown);
}

TEST(QueueTest, DispatchOrderPriorityThenDeadlineThenFifo) {
  JobQueue queue(8);
  ServiceError error = ServiceError::kNone;
  // Admitted in scrambled order; ids are 1..5 in submission order.
  const uint64_t plain_a = queue.Submit(SmallRequest(), &error)->id;
  const uint64_t slack =
      queue.Submit(SmallRequest(/*deadline_ms=*/60000.0), &error)->id;
  const uint64_t urgent =
      queue.Submit(SmallRequest(/*deadline_ms=*/5000.0), &error)->id;
  const uint64_t vip =
      queue.Submit(SmallRequest(/*deadline_ms=*/0.0, /*priority=*/2), &error)
          ->id;
  const uint64_t plain_b = queue.Submit(SmallRequest(), &error)->id;

  // Highest priority first; then oldest (earliest) deadline; jobs with
  // no deadline sort last among equals, FIFO between themselves.
  EXPECT_EQ(queue.Pop()->id, vip);
  EXPECT_EQ(queue.Pop()->id, urgent);
  EXPECT_EQ(queue.Pop()->id, slack);
  EXPECT_EQ(queue.Pop()->id, plain_a);
  EXPECT_EQ(queue.Pop()->id, plain_b);
}

TEST(QueueTest, CancelReachesQueuedJobContext) {
  JobQueue queue(4);
  ServiceError error = ServiceError::kNone;
  const uint64_t id = queue.Submit(SmallRequest(), &error)->id;

  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id + 100));  // unknown id

  std::optional<Job> job = queue.Pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(job->ctx->cancel_requested());

  // After the worker forgets the job, its id no longer resolves.
  queue.Forget(id);
  EXPECT_FALSE(queue.Cancel(id));
}

TEST(QueueTest, DeadlineArmsTheRunContextAtAdmission) {
  JobQueue queue(4);
  ServiceError error = ServiceError::kNone;
  ASSERT_TRUE(queue.Submit(SmallRequest(/*deadline_ms=*/60000.0), &error)
                  .ok());
  std::optional<Job> job = queue.Pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(job->ctx->has_deadline());
  EXPECT_GT(job->ctx->remaining_millis(), 0.0);
  EXPECT_LE(job->ctx->remaining_millis(), 60000.0);
}

TEST(QueueTest, LoadSheddingRaisesThePriorityBarWithOccupancy) {
  QueueOptions options;
  options.capacity = 8;
  options.shed_start_fraction = 0.5;
  options.shed_levels = 4;
  JobQueue queue(options);
  ServiceError error = ServiceError::kNone;

  // Calm queue (occupancy < 0.5): no bar, even negative priority enters.
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/-3), &error).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.Submit(SmallRequest(), &error).ok());
  }

  // depth 4/8 = shed start: priority >= 1 required.
  const StatusOr<JobQueue::Ticket> shed_a =
      queue.Submit(SmallRequest(), &error);
  ASSERT_FALSE(shed_a.ok());
  EXPECT_EQ(shed_a.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(error, ServiceError::kShedLowPriority);
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/1), &error).ok());

  // depth 5/8: the bar is still 1.
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/1), &error).ok());

  // depth 6/8 (ramp 0.5 of the way): priority >= 2 required.
  EXPECT_FALSE(queue.Submit(SmallRequest(0.0, /*priority=*/1), &error).ok());
  EXPECT_EQ(error, ServiceError::kShedLowPriority);
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/2), &error).ok());

  // depth 7/8: priority >= 3 required.
  EXPECT_FALSE(queue.Submit(SmallRequest(0.0, /*priority=*/2), &error).ok());
  EXPECT_EQ(error, ServiceError::kShedLowPriority);
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/3), &error).ok());

  // Full is full, whatever the priority: kQueueFull, not a shed.
  EXPECT_FALSE(
      queue.Submit(SmallRequest(0.0, /*priority=*/99), &error).ok());
  EXPECT_EQ(error, ServiceError::kQueueFull);

  const Metrics& metrics = queue.metrics();
  EXPECT_EQ(metrics.Get(Counter::kAccepted), 8u);
  EXPECT_EQ(metrics.Get(Counter::kShed), 3u);
  EXPECT_EQ(metrics.Get(Counter::kRejected), 4u);  // 3 shed + 1 hard-full
}

TEST(QueueTest, SheddingDisabledWhenStartFractionIsOne) {
  QueueOptions options;
  options.capacity = 2;
  options.shed_start_fraction = 1.0;
  JobQueue queue(options);
  ServiceError error = ServiceError::kNone;
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/-5), &error).ok());
  ASSERT_TRUE(queue.Submit(SmallRequest(0.0, /*priority=*/-5), &error).ok());
  EXPECT_FALSE(queue.Submit(SmallRequest(), &error).ok());
  EXPECT_EQ(error, ServiceError::kQueueFull);
  EXPECT_EQ(queue.metrics().Get(Counter::kShed), 0u);
}

TEST(QueueTest, ObserverSeesAdmitBeforePopAndCancel) {
  struct Recorder : JobObserver {
    std::vector<std::string> events;
    void OnAdmit(const Job& job) override {
      events.push_back("admit:" + std::to_string(job.id));
    }
    void OnCancel(uint64_t id) override {
      events.push_back("cancel:" + std::to_string(id));
    }
  };
  Recorder recorder;
  QueueOptions options;
  options.capacity = 4;
  options.observer = &recorder;
  JobQueue queue(options);
  EXPECT_EQ(queue.observer(), &recorder);

  ServiceError error = ServiceError::kNone;
  const uint64_t id = queue.Submit(SmallRequest(), &error)->id;
  ASSERT_TRUE(queue.Cancel(id));
  EXPECT_EQ(recorder.events,
            (std::vector<std::string>{"admit:" + std::to_string(id),
                                      "cancel:" + std::to_string(id)}));
}

TEST(QueueTest, CloseWakesBlockedConsumer) {
  JobQueue queue(4);
  std::thread consumer([&queue] {
    EXPECT_FALSE(queue.Pop().has_value());  // wakes empty on Close
  });
  queue.Close();
  consumer.join();
}

}  // namespace
}  // namespace kanon
