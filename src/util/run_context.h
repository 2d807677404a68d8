#ifndef KANON_UTIL_RUN_CONTEXT_H_
#define KANON_UTIL_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/metrics.h"
#include "util/status.h"

/// \file
/// Cooperative execution control for the anonymizers.
///
/// The paper's central result is that optimal k-anonymity is NP-hard
/// (Theorems 3.1/3.2), so the exact solvers and the exponential set-cover
/// family can blow up without warning — precisely on the adversarial
/// instances the hardness reductions generate. A production deployment
/// must therefore *bound* every run. `RunContext` carries those bounds:
///
///   * a wall-clock **deadline**,
///   * a cooperative **cancellation token** (thread-safe; another thread
///     may call RequestCancel() at any time),
///   * a **node/iteration budget** charged by the solvers.
///
/// Solvers poll `ShouldStop()` at cooperative checkpoints in their hot
/// loops (every few hundred iterations). The first limit to trip is
/// *latched* as the context's `stop_reason()` and every later
/// `ShouldStop()` returns true immediately, so a stop propagates through
/// nested helpers without re-deriving the cause. A default-constructed
/// context has no limits and its `ShouldStop()` is a couple of relaxed
/// atomic loads — cheap enough for inner loops.
///
/// **Strict vs lenient.** Solvers with structural caps (exact_dp's
/// max_rows, greedy_cover's max_family_size, ...) abort via KANON_CHECK
/// when the cap is exceeded on a strict context (the historical
/// behavior: exceeding the cap is a caller bug). On a context marked
/// `set_lenient(true)` they instead *decline*: they return immediately
/// with `StopReason::kBudget` and an empty partition, which the
/// fallback chain (algo/fallback.h) turns into graceful degradation.

namespace kanon {

/// Why a run stopped early; kNone means it ran to completion.
enum class StopReason {
  kNone = 0,
  kDeadline,
  kBudget,
  kCancelled,
};

/// Presentation name: "completed", "deadline", "budget", "cancelled".
const char* StopReasonName(StopReason reason);

/// Maps a stop reason onto the Status layer (kNone -> OK).
Status StopReasonToStatus(StopReason reason);

/// Destination for solver checkpoints. The util layer only defines the
/// interface; the concrete sink (src/ckpt's durable store, a test's
/// in-memory slot) lives above. Persist() is called from the solver's
/// own thread at a cadence poll; implementations decide durability and
/// must be safe to call repeatedly with the latest state.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// Persists `payload` as the newest snapshot of `solver`'s state.
  /// Returning non-OK is not fatal to the run — the solver keeps going
  /// and simply has an older (or no) snapshot on record.
  virtual Status Persist(std::string_view solver,
                         const std::string& payload) = 0;
};

/// Execution-control state for one anonymization run. Not copyable;
/// share by pointer. All methods are thread-safe, so one context can be
/// observed from every ParallelFor worker at once.
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// No limits, strict.
  RunContext() = default;

  /// Child context: cancellation of `parent` (or any of its ancestors)
  /// is observed by this context too, and the child counts into the
  /// parent's registry. Limits are NOT inherited — the creator sets the
  /// child's own deadline/budget (the fallback chain gives each stage a
  /// slice of the remaining time).
  explicit RunContext(const RunContext* parent)
      : parent_(parent),
        metrics_(parent != nullptr ? parent->metrics_ : nullptr) {}

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // --- Limit configuration (set before the run starts) ---------------

  /// Absolute deadline.
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Deadline `millis` from now. Negative or zero means "already
  /// expired" (useful in tests).
  void set_deadline_after_millis(double millis);

  /// Node/iteration budget; 0 (default) = unlimited.
  void set_node_budget(uint64_t max_nodes) { node_budget_ = max_nodes; }
  uint64_t node_budget() const { return node_budget_; }

  /// Lenient contexts make structural-cap violations decline instead of
  /// abort; see the file comment.
  void set_lenient(bool lenient) { lenient_ = lenient; }
  bool lenient() const { return lenient_; }

  /// Blocks the checkpoint/resume ancestor walk at this context: solvers
  /// running under it (or any descendant) observe no armed sink above —
  /// CheckpointDue() stays false, EmitCheckpoint() fails — and no resume
  /// payloads installed above. Cancellation, preemption, heartbeats and
  /// scratch still propagate. Parallel fan-out wrappers (the sharded
  /// pipeline) set this on their per-shard child contexts so the wrapper
  /// is the job's single snapshot writer and an inner solver can never
  /// restore another shard's (same-sized, size-validated) partial state
  /// through the job-root resume slot. Set before the child runs, like
  /// the limits above.
  void set_checkpoint_isolated(bool isolated) { ckpt_isolated_ = isolated; }
  bool checkpoint_isolated() const { return ckpt_isolated_; }

  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }

  /// Milliseconds until the deadline (negative once past it); a very
  /// large value when no deadline is set.
  double remaining_millis() const;

  // --- Cancellation ---------------------------------------------------

  /// Requests cooperative cancellation; safe from any thread.
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }

  /// True if this context or any ancestor was cancelled.
  bool cancel_requested() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    return parent_ != nullptr && parent_->cancel_requested();
  }

  /// Watchdog preemption: cancellation plus a marker distinguishing "the
  /// service gave up on this worker" from a caller's own cancel, so the
  /// response can carry the watchdog-specific typed error.
  void RequestPreempt() {
    preempted_.store(true, std::memory_order_release);
    RequestCancel();
  }

  /// True if this context or any ancestor was preempted by a watchdog.
  bool preempt_requested() const {
    if (preempted_.load(std::memory_order_acquire)) return true;
    return parent_ != nullptr && parent_->preempt_requested();
  }

  // --- Cooperative checkpoints ---------------------------------------

  /// The checkpoint solvers poll in their hot loops. Latches and
  /// returns true once any limit trips; returns false on the fast path.
  bool ShouldStop();

  /// Adds `n` to the consumed node/iteration count. Does not itself
  /// stop the run — the next ShouldStop() observes the overrun.
  void ChargeNodes(uint64_t n = 1) {
    nodes_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t nodes_charged() const {
    return nodes_.load(std::memory_order_relaxed);
  }

  // --- Checkpoint cadence and resume ----------------------------------
  //
  // Same discipline as KANON_FAULT_POINT: disarmed (the default) the
  // whole feature costs a few relaxed loads per cadence poll, so the
  // anytime solvers can poll unconditionally. The worker pool arms the
  // *job root* context; solvers running under fallback-chain child
  // contexts reach it through the parent walk, exactly like
  // cancellation. Heartbeats ride along: every ShouldStop() poll bumps a
  // counter on the whole ancestor chain, which is what the service
  // watchdog reads to tell a slow-but-alive worker from a stuck one.

  /// Arms checkpointing on THIS context (the job root). Solvers reach it
  /// from descendant contexts. A snapshot becomes due every
  /// `every_polls` CheckpointDue() calls (0 = never by count), or once
  /// `every_millis` has elapsed since the last emission (0 = never by
  /// time). `sink` must outlive the armed window.
  void ArmCheckpoints(CheckpointSink* sink, uint64_t every_polls,
                      double every_millis = 0.0);

  /// Disarms; safe while no solver is concurrently polling.
  void DisarmCheckpoints() { ArmCheckpoints(nullptr, 0, 0.0); }

  /// Cadence poll, called by solvers at their natural save boundaries
  /// (a pass, a search-node stride, an outer-loop head). Returns true
  /// when a snapshot should be emitted now. False-and-cheap when no
  /// ancestor is armed.
  bool CheckpointDue() const;

  /// Hands `payload` (the solver's encoded state) to the armed sink.
  /// Returns the sink's status; kFailedPrecondition-style Internal when
  /// nothing is armed. Solvers may ignore the result — a failed
  /// persist only means the last good snapshot stays current.
  Status EmitCheckpoint(std::string_view solver,
                        const std::string& payload) const;

  /// Snapshots successfully emitted through this (root) context.
  uint64_t checkpoints_emitted() const {
    return ckpt_emitted_.load(std::memory_order_relaxed);
  }

  /// Installs solver state to resume from: the named solver, on its next
  /// run under this context (or a descendant), restores `payload`
  /// instead of starting cold. One slot per solver name; the service
  /// layer installs exactly the snapshot it loaded for the job.
  void SetResume(std::string solver, std::string payload);

  /// Resume payload for `solver`, looked up on this context then its
  /// ancestors; nullopt when none was installed. The walk stops at a
  /// checkpoint-isolated context (own slot still visible, ancestors
  /// not). Non-consuming (an in-place retry re-resumes
  /// deterministically).
  std::optional<std::string> resume_payload(std::string_view solver) const;

  /// Liveness counter: bumped on this context and every ancestor by each
  /// ShouldStop() poll and each emitted checkpoint.
  uint64_t heartbeats() const {
    return heartbeats_.load(std::memory_order_relaxed);
  }

  // --- Per-run scratch cache ------------------------------------------
  //
  // Expensive derived structures (the DistanceOracle of core/, built
  // from one table) are shared across every consumer that receives the
  // same context instead of being rebuilt per solver. The context only
  // sees opaque shared_ptrs; the owning layer defines the key (an
  // object address) and validates what it gets back. Entries die with
  // the context.

  /// Stores `value` under `key` on this context, replacing any previous
  /// entry. Thread-safe.
  void PutScratch(const void* key, std::shared_ptr<void> value);

  /// Looks `key` up on this context, then on its ancestors (so work
  /// cached on a parent is visible to child stage contexts). Returns
  /// nullptr when absent. Thread-safe.
  std::shared_ptr<void> GetScratch(const void* key) const;

  // --- Counters -------------------------------------------------------

  /// Attaches the serving stack's counter registry (util/metrics.h; not
  /// owned). Set before the run starts, and before any child context is
  /// created: children copy it at construction.
  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

  /// Adds `n` to `counter` in the attached registry; a no-op when none
  /// is attached.
  void Count(Counter counter, uint64_t n = 1) const {
    if (metrics_ != nullptr) metrics_->Add(counter, n);
  }

  // --- Outcome --------------------------------------------------------

  /// First limit that tripped; kNone while running normally.
  StopReason stop_reason() const {
    return static_cast<StopReason>(
        stop_reason_.load(std::memory_order_acquire));
  }

  /// Latches `reason` directly (used by solvers that decline a run
  /// before starting it, e.g. a structural cap on a lenient context).
  void MarkStopped(StopReason reason) { Latch(reason); }

 private:
  /// First writer wins; later latches keep the original reason.
  void Latch(StopReason reason);

  const RunContext* parent_ = nullptr;
  Metrics* metrics_ = nullptr;

  std::atomic<bool> has_deadline_{false};
  Clock::time_point deadline_{};

  uint64_t node_budget_ = 0;
  bool lenient_ = false;
  bool ckpt_isolated_ = false;

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> preempted_{false};
  std::atomic<uint64_t> nodes_{0};
  std::atomic<int> stop_reason_{static_cast<int>(StopReason::kNone)};

  /// Nearest ancestor (possibly this) with checkpoints armed; nullptr
  /// when the whole chain is disarmed.
  const RunContext* CheckpointRoot() const;

  /// Bumps the liveness counter on this context and every ancestor.
  void Heartbeat() const;

  // Checkpoint cadence state. All mutable: cadence polling happens on
  // logically-const paths (CheckpointDue/EmitCheckpoint are const so
  // solvers holding a const ancestor pointer can reach them).
  CheckpointSink* ckpt_sink_ = nullptr;
  std::atomic<bool> ckpt_armed_{false};
  std::atomic<uint64_t> ckpt_every_polls_{0};
  std::atomic<int64_t> ckpt_every_ns_{0};
  mutable std::atomic<uint64_t> ckpt_polls_{0};
  mutable std::atomic<int64_t> ckpt_last_ns_{0};
  mutable std::atomic<uint64_t> ckpt_emitted_{0};
  mutable std::atomic<uint64_t> heartbeats_{0};

  // Resume payloads by solver name; written once by the service layer
  // before the run, read by solvers at run start. Guarded by scratch_mu_.
  std::unordered_map<std::string, std::string> resume_;

  mutable std::mutex scratch_mu_;
  std::unordered_map<const void*, std::shared_ptr<void>> scratch_;
};

}  // namespace kanon

#endif  // KANON_UTIL_RUN_CONTEXT_H_
