#include "util/run_context.h"

#include <limits>

namespace kanon {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "completed";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kBudget:
      return "budget";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Status StopReasonToStatus(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return Status::Ok();
    case StopReason::kDeadline:
      return Status::DeadlineExceeded("run deadline expired");
    case StopReason::kBudget:
      return Status::ResourceExhausted("run budget exhausted");
    case StopReason::kCancelled:
      return Status::Cancelled("run cancelled");
  }
  return Status::Internal("unknown stop reason");
}

void RunContext::set_deadline_after_millis(double millis) {
  set_deadline(Clock::now() +
               std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(millis)));
}

double RunContext::remaining_millis() const {
  if (!has_deadline()) return std::numeric_limits<double>::max();
  return std::chrono::duration<double, std::milli>(deadline_ -
                                                   Clock::now())
      .count();
}

void RunContext::Latch(StopReason reason) {
  int expected = static_cast<int>(StopReason::kNone);
  stop_reason_.compare_exchange_strong(expected,
                                       static_cast<int>(reason),
                                       std::memory_order_acq_rel);
}

bool RunContext::ShouldStop() {
  Heartbeat();
  if (stop_reason() != StopReason::kNone) return true;
  if (cancel_requested()) {
    Latch(StopReason::kCancelled);
    return true;
  }
  if (node_budget_ != 0 &&
      nodes_.load(std::memory_order_relaxed) >= node_budget_) {
    Latch(StopReason::kBudget);
    return true;
  }
  if (has_deadline() && Clock::now() >= deadline_) {
    Latch(StopReason::kDeadline);
    return true;
  }
  return false;
}

void RunContext::Heartbeat() const {
  for (const RunContext* c = this; c != nullptr; c = c->parent_) {
    c->heartbeats_.fetch_add(1, std::memory_order_relaxed);
  }
}

const RunContext* RunContext::CheckpointRoot() const {
  for (const RunContext* c = this; c != nullptr; c = c->parent_) {
    if (c->ckpt_armed_.load(std::memory_order_acquire)) return c;
    // An isolated context hides every armed ancestor from its subtree
    // (its own arming, checked above, still counts).
    if (c->ckpt_isolated_) return nullptr;
  }
  return nullptr;
}

void RunContext::ArmCheckpoints(CheckpointSink* sink, uint64_t every_polls,
                                double every_millis) {
  const bool arm = sink != nullptr && (every_polls > 0 || every_millis > 0.0);
  if (!arm) {
    // Disarm first so a concurrent CheckpointDue() never observes a
    // half-configured cadence.
    ckpt_armed_.store(false, std::memory_order_release);
    ckpt_sink_ = nullptr;
    ckpt_every_polls_.store(0, std::memory_order_relaxed);
    ckpt_every_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  ckpt_sink_ = sink;
  ckpt_every_polls_.store(every_polls, std::memory_order_relaxed);
  ckpt_every_ns_.store(
      every_millis > 0.0
          ? static_cast<int64_t>(every_millis * 1e6)
          : 0,
      std::memory_order_relaxed);
  ckpt_polls_.store(0, std::memory_order_relaxed);
  ckpt_last_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  ckpt_armed_.store(true, std::memory_order_release);
}

bool RunContext::CheckpointDue() const {
  const RunContext* root = CheckpointRoot();
  if (root == nullptr) return false;
  const uint64_t every =
      root->ckpt_every_polls_.load(std::memory_order_relaxed);
  if (every > 0) {
    const uint64_t polls =
        root->ckpt_polls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (polls % every == 0) return true;
  }
  const int64_t every_ns =
      root->ckpt_every_ns_.load(std::memory_order_relaxed);
  if (every_ns > 0) {
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    int64_t last = root->ckpt_last_ns_.load(std::memory_order_relaxed);
    if (now_ns - last >= every_ns &&
        root->ckpt_last_ns_.compare_exchange_strong(
            last, now_ns, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

Status RunContext::EmitCheckpoint(std::string_view solver,
                                  const std::string& payload) const {
  const RunContext* root = CheckpointRoot();
  if (root == nullptr || root->ckpt_sink_ == nullptr) {
    return Status::Internal("no checkpoint sink armed");
  }
  const Status status = root->ckpt_sink_->Persist(solver, payload);
  if (status.ok()) {
    root->ckpt_emitted_.fetch_add(1, std::memory_order_relaxed);
    // Emitting counts as liveness for the watchdog even if the solver
    // never reaches another ShouldStop() between snapshots.
    Heartbeat();
  }
  return status;
}

void RunContext::SetResume(std::string solver, std::string payload) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  resume_[std::move(solver)] = std::move(payload);
}

std::optional<std::string> RunContext::resume_payload(
    std::string_view solver) const {
  const std::string key(solver);
  for (const RunContext* c = this; c != nullptr; c = c->parent_) {
    {
      std::lock_guard<std::mutex> lock(c->scratch_mu_);
      const auto it = c->resume_.find(key);
      if (it != c->resume_.end()) return it->second;
    }
    // Same barrier as CheckpointRoot(): an isolated context's own slot
    // is visible, its ancestors' slots are not.
    if (c->ckpt_isolated_) return std::nullopt;
  }
  return std::nullopt;
}

void RunContext::PutScratch(const void* key, std::shared_ptr<void> value) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_[key] = std::move(value);
}

std::shared_ptr<void> RunContext::GetScratch(const void* key) const {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    const auto it = scratch_.find(key);
    if (it != scratch_.end()) return it->second;
  }
  return parent_ != nullptr ? parent_->GetScratch(key) : nullptr;
}

}  // namespace kanon
