#ifndef KANON_SERVICE_OVERLOAD_OVERLOAD_H_
#define KANON_SERVICE_OVERLOAD_OVERLOAD_H_

#include <cstdint>
#include <string>

#include "service/overload/codel.h"
#include "service/overload/estimator.h"
#include "service/overload/governor.h"
#include "service/overload/retry_budget.h"

/// \file
/// The adaptive overload-control plane, threaded from the TCP front end
/// down to RunContext. One OverloadControl instance per service wires
/// four coordinated mechanisms:
///
///   * **CoDel admission** (service/overload/codel.h): the queue asks
///     ShouldShed() at Submit; the worker feeds dequeue sojourns back.
///     Sustained above-target queue delay sheds arrivals with the typed
///     `shed_overload` error on an increasing-frequency schedule.
///   * **Deadline reconciliation** (service/overload/estimator.h): at
///     dispatch, a job whose remaining deadline budget cannot fit even
///     the *optimistic* solve-time estimate for its backend is answered
///     `deadline_infeasible` before any solve work burns a worker.
///   * **Retry budget** (service/overload/retry_budget.h): pool-wide
///     token bucket refilled by successes; exhaustion degrades faulted
///     jobs to the terminal stage instead of amplifying load.
///   * **Brownout ladder** (service/overload/governor.h): green/yellow/
///     red state machine rewriting admissible jobs to cheaper backends;
///     the rewrite lands in the request *before* execution, so the
///     result cache keys on the effective backend + knobs and a
///     browned-out result can never answer a full-fidelity request.
///
/// Fault sites `overload.shed` and `overload.brownout` force the shed /
/// rewrite paths deterministically under a chaos plan. Time is always an
/// explicit now_ms parameter (SteadyNowMillis() in production, virtual
/// time in the chaos harness), so every decision the plane makes is
/// replayable from a seed.

namespace kanon {

struct OverloadOptions {
  /// Master switch for the brownout governor ("--brownout=off|auto").
  /// CoDel admission, deadline reconciliation and the retry budget are
  /// active whenever an OverloadControl exists.
  bool governor_enabled = true;
  CoDelOptions codel;
  EstimatorOptions estimator;
  RetryBudgetOptions retry_budget;
  GovernorOptions governor;
};

class OverloadControl {
 public:
  explicit OverloadControl(OverloadOptions options = {});

  OverloadControl(const OverloadControl&) = delete;
  OverloadControl& operator=(const OverloadControl&) = delete;

  /// Milliseconds on the process steady clock (production time source).
  static double SteadyNowMillis();

  /// Queue admission consult: true = reject this arrival with the typed
  /// shed_overload error. Consults the `overload.shed` fault site first
  /// (a forced shed under a chaos plan), then the CoDel controller.
  bool ShouldShed(double now_ms);

  /// Worker-side dequeue report: `sojourn_ms` is the popped job's queue
  /// wait, `open_breakers` the current count of open stage breakers.
  /// Feeds both the CoDel controller and the governor.
  void OnDequeue(double sojourn_ms, double now_ms, int open_breakers);

  /// Deadline reconciliation: true = the job cannot finish inside
  /// `remaining_ms` even optimistically and must be rejected typed.
  /// Never true for jobs without a deadline (`remaining_ms` < 0 means
  /// the deadline already passed — always infeasible).
  bool DeadlineInfeasible(const std::string& backend, double remaining_ms);

  /// Brownout consult for one admissible job. The `overload.brownout`
  /// fault site forces at least a yellow-level decision; otherwise the
  /// governor's current level applies.
  RewriteDecision MaybeRewrite(uint64_t job_id, const std::string& algorithm,
                               double requested_coreset_rate);

  /// Pool-wide retry consult: false = budget exhausted, degrade instead.
  bool AllowRetry();

  /// Outcome report: feeds the estimator (skipped for cache hits, whose
  /// near-zero times would poison the optimistic bound) and refills the
  /// retry budget on success.
  void RecordOutcome(const std::string& backend, double run_ms, bool ok,
                     bool cache_hit);

  BrownoutLevel level() const;
  /// Governor level transitions so far.
  uint64_t transitions() const;
  const SolveTimeEstimator& estimator() const { return estimator_; }
  bool governor_enabled() const { return options_.governor_enabled; }

 private:
  const OverloadOptions options_;
  SolveTimeEstimator estimator_;
  CoDelAdmission codel_;
  RetryBudget retry_budget_;
  HealthGovernor governor_;
};

}  // namespace kanon

#endif  // KANON_SERVICE_OVERLOAD_OVERLOAD_H_
