#include "service/overload/overload.h"

#include <chrono>

#include "fault/fault.h"

namespace kanon {

OverloadControl::OverloadControl(OverloadOptions options)
    : options_(options),
      estimator_(options.estimator),
      codel_(options.codel),
      retry_budget_(options.retry_budget),
      governor_(options.governor) {}

double OverloadControl::SteadyNowMillis() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool OverloadControl::ShouldShed(double now_ms) {
  // The injected shed fires regardless of CoDel state so a chaos plan
  // can exercise the typed rejection deterministically.
  if (KANON_FAULT_POINT("overload.shed")) return true;
  return codel_.ShouldShed(now_ms);
}

void OverloadControl::OnDequeue(double sojourn_ms, double now_ms,
                                int open_breakers) {
  codel_.OnSojourn(sojourn_ms, now_ms);
  if (!options_.governor_enabled) return;
  GovernorSignals signals;
  signals.queue_delay_ms = sojourn_ms;
  signals.open_breakers = open_breakers;
  governor_.Update(signals);
}

bool OverloadControl::DeadlineInfeasible(const std::string& backend,
                                         double remaining_ms) {
  // Already past the deadline: any solve work is wasted.
  if (remaining_ms < 0.0) return true;
  const double optimistic = estimator_.OptimisticMillis(backend);
  return optimistic > 0.0 && remaining_ms < optimistic;
}

RewriteDecision OverloadControl::MaybeRewrite(
    uint64_t job_id, const std::string& algorithm,
    double requested_coreset_rate) {
  if (!options_.governor_enabled) return RewriteDecision{};
  // An injected brownout forces at least one rung of degradation even
  // when the governor is green — the chaos harness uses it to exercise
  // the rewrite path on a deterministic schedule.
  const BrownoutLevel force = KANON_FAULT_POINT("overload.brownout")
                                  ? BrownoutLevel::kYellow
                                  : BrownoutLevel::kGreen;
  return governor_.Decide(job_id, algorithm, requested_coreset_rate, force);
}

bool OverloadControl::AllowRetry() { return retry_budget_.TryWithdraw(); }

void OverloadControl::RecordOutcome(const std::string& backend,
                                    double run_ms, bool ok,
                                    bool cache_hit) {
  if (ok) retry_budget_.OnSuccess();
  if (!cache_hit && ok) estimator_.Record(backend, run_ms);
}

BrownoutLevel OverloadControl::level() const { return governor_.level(); }

uint64_t OverloadControl::transitions() const {
  return governor_.snapshot().transitions;
}

}  // namespace kanon
