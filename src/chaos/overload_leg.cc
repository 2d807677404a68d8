#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "chaos/legs.h"
#include "fault/fault.h"
#include "service/overload/overload.h"
#include "util/fingerprint.h"

namespace kanon {
namespace chaos {

namespace {

/// Observations in the governor replay (invariant 12).
constexpr size_t kGovernorSignals = 256;
/// Arrivals in the virtual-time goodput simulation (invariant 13).
constexpr size_t kSimArrivals = 400;

const char* const kAlgorithms[] = {
    "mdav", "mdav", "exact_dp", "branch_bound", "cluster_greedy",
    "mdav+annealing", "resilient", "suppress_all",
    "coreset_mdav", "sharded_mdav",
};

uint64_t FoldDouble(uint64_t fp, double value) {
  return FingerprintInt(
      fp, static_cast<uint64_t>(std::llround(value * 1e6)));
}

uint64_t FoldDecision(uint64_t fp, const RewriteDecision& decision) {
  fp = FingerprintInt(fp, static_cast<uint64_t>(decision.level));
  fp = FingerprintInt(fp, decision.rewritten ? 1 : 0);
  fp = FingerprintPiece(fp, decision.effective);
  fp = FoldDouble(fp, decision.coreset_rate);
  return fp;
}

// ---------------------------------------------------------------------
// Invariant 12: brownout decisions replay bit-identically.
// ---------------------------------------------------------------------

void CheckGovernorReplay(uint64_t seed, const Leg& leg) {
  Rng rng(seed, /*stream=*/0x6f76676f76ull);  // "ovgov"
  uint64_t& fp = leg.report->digest;
  GovernorOptions gov;
  // Half the schedules sample the per-job apply hash (the only place
  // the seed enters a decision); the rest rewrite every eligible job.
  gov.apply_fraction = rng.Bernoulli(0.5) ? 0.5 : 1.0;
  gov.seed = seed ^ 0x6272776eull;
  HealthGovernor first(gov);
  HealthGovernor second(gov);

  static const char* const kAlgos[] = {
      "mdav",         "exact_dp",     "branch_bound", "cluster_greedy",
      "ball_cover",   "sharded_mdav", "coreset_mdav", "mdav+annealing",
      "resilient",    "suppress_all",
  };
  constexpr size_t kNumAlgos = sizeof(kAlgos) / sizeof(kAlgos[0]);

  // Delay random walk with occasional bursts, so the ladder climbs,
  // escalates under sustained red, and descends again.
  double delay_ms = 5.0;
  for (size_t i = 0; i < kGovernorSignals; ++i) {
    if (rng.Bernoulli(0.08)) {
      delay_ms = rng.UniformDouble() * 400.0;
    } else {
      delay_ms =
          std::max(0.0, delay_ms + (rng.UniformDouble() - 0.5) * 60.0);
    }
    GovernorSignals signals;
    signals.queue_delay_ms = delay_ms;
    signals.open_breakers = rng.Bernoulli(0.1) ? rng.UniformInt(1, 3) : 0;
    signals.memory_latched = rng.Bernoulli(0.03);

    const BrownoutLevel level_a = first.Update(signals);
    const BrownoutLevel level_b = second.Update(signals);
    const uint64_t job_id = rng.Next();
    const std::string algorithm = kAlgos[rng.Uniform(kNumAlgos)];
    const double rate = rng.Bernoulli(0.2) ? 0.3 : 0.0;
    const RewriteDecision a = first.Decide(job_id, algorithm, rate);
    const RewriteDecision b = second.Decide(job_id, algorithm, rate);
    if (level_a != level_b || a.level != b.level ||
        a.rewritten != b.rewritten || a.effective != b.effective ||
        a.coreset_rate != b.coreset_rate) {
      leg.Violation(12, "governor replay diverged at observation " +
                            std::to_string(i) + " (" +
                            BrownoutLevelName(level_a) + " vs " +
                            BrownoutLevelName(level_b) + ", effective '" +
                            a.effective + "' vs '" + b.effective + "')");
    }
    fp = FingerprintInt(fp, static_cast<uint64_t>(level_a));
    fp = FoldDecision(fp, a);
  }
  const HealthGovernor::Snapshot snap_a = first.snapshot();
  const HealthGovernor::Snapshot snap_b = second.snapshot();
  if (snap_a.transitions != snap_b.transitions ||
      snap_a.red_epochs != snap_b.red_epochs ||
      snap_a.level != snap_b.level) {
    leg.Violation(12, "governor replay end-states diverged (" +
                          std::to_string(snap_a.transitions) + "/" +
                          std::to_string(snap_a.red_epochs) + " vs " +
                          std::to_string(snap_b.transitions) + "/" +
                          std::to_string(snap_b.red_epochs) + ")");
  }
  fp = FingerprintInt(fp, snap_a.transitions);
  fp = FingerprintInt(fp, snap_a.red_epochs);
}

// ---------------------------------------------------------------------
// Invariant 13: goodput monotonically no worse governor-on.
// ---------------------------------------------------------------------

/// One virtual-time arrival. Service costs are a deterministic function
/// of the backend *tier* alone — unit job size, so the estimator's
/// optimistic bound (the lower bucket edge) is provably below every
/// actual cost and deadline reconciliation can only reject doomed work.
struct SimArrival {
  double arrive_ms = 0.0;
  double deadline_ms = 0.0;
  std::string algorithm;
};

double SimCostOf(const std::string& algorithm) {
  if (algorithm.rfind("coreset_", 0) == 0) return 2.0;
  if (algorithm.rfind("sharded_", 0) == 0) return 5.0;
  if (algorithm == "suppress_all") return 0.5;
  return 10.0;
}

struct SimOutcome {
  size_t goodput = 0;
  size_t brownouts = 0;
  size_t infeasible = 0;
};

/// Single FIFO server over the arrival sequence. With `governor_on`,
/// each dispatch feeds the governor the job's virtual sojourn, applies
/// the brownout rewrite, and rejects jobs whose remaining deadline
/// budget cannot fit the estimator's optimistic bound for the
/// effective backend. Every rewrite only cheapens the job and every
/// rejection frees the server earlier, so goodput can only improve —
/// which is exactly what invariant 13 asserts.
SimOutcome RunGoodputSim(const std::vector<SimArrival>& arrivals,
                         bool governor_on, uint64_t* fp) {
  GovernorOptions gov;
  gov.yellow_delay_ms = 40.0;
  gov.red_delay_ms = 160.0;
  HealthGovernor governor(gov);
  SolveTimeEstimator estimator;
  SimOutcome outcome;
  double busy_until_ms = 0.0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const SimArrival& job = arrivals[i];
    const double start_ms = std::max(busy_until_ms, job.arrive_ms);
    const double deadline_abs = job.arrive_ms + job.deadline_ms;
    std::string effective = job.algorithm;
    if (governor_on) {
      GovernorSignals signals;
      signals.queue_delay_ms = start_ms - job.arrive_ms;
      governor.Update(signals);
      const RewriteDecision decision =
          governor.Decide(/*job_id=*/i, job.algorithm,
                          /*requested_coreset_rate=*/0.0);
      if (decision.rewritten) {
        effective = decision.effective;
        ++outcome.brownouts;
      }
      const double remaining_ms = deadline_abs - start_ms;
      const double optimistic = estimator.OptimisticMillis(effective);
      if (remaining_ms < 0.0 ||
          (optimistic > 0.0 && remaining_ms < optimistic)) {
        ++outcome.infeasible;
        if (fp != nullptr) *fp = FingerprintInt(*fp, 2);
        continue;  // rejected typed; the server stays free
      }
    }
    const double cost_ms = SimCostOf(effective);
    busy_until_ms = start_ms + cost_ms;
    if (governor_on) estimator.Record(effective, cost_ms);
    const bool good = busy_until_ms <= deadline_abs;
    if (good) ++outcome.goodput;
    if (fp != nullptr) {
      *fp = FingerprintInt(*fp, good ? 1 : 0);
      *fp = FingerprintPiece(*fp, effective);
    }
  }
  return outcome;
}

void CheckGoodput(uint64_t seed, const Leg& leg) {
  Rng rng(seed, /*stream=*/0x676f6f64ull);  // "good"
  uint64_t& fp = leg.report->digest;
  static const char* const kAlgos[] = {
      "mdav", "mdav", "exact_dp", "cluster_greedy",
      "sharded_mdav", "coreset_mdav", "suppress_all",
  };
  constexpr size_t kNumAlgos = sizeof(kAlgos) / sizeof(kAlgos[0]);
  std::vector<SimArrival> arrivals;
  arrivals.reserve(kSimArrivals);
  double clock_ms = 0.0;
  for (size_t i = 0; i < kSimArrivals; ++i) {
    // Poisson arrivals at ~1.4x the direct-tier service rate: the
    // plain FIFO run builds a standing queue, the governed run browns
    // out and keeps meeting deadlines.
    const double u = std::min(rng.UniformDouble(), 0.999999);
    clock_ms += -5.0 * std::log(1.0 - u);
    SimArrival job;
    job.arrive_ms = clock_ms;
    job.deadline_ms = 30.0 + rng.UniformDouble() * 120.0;
    job.algorithm = kAlgos[rng.Uniform(kNumAlgos)];
    arrivals.push_back(std::move(job));
  }
  const SimOutcome off = RunGoodputSim(arrivals, /*governor_on=*/false,
                                       /*fp=*/nullptr);
  const SimOutcome on = RunGoodputSim(arrivals, /*governor_on=*/true, &fp);
  if (on.goodput < off.goodput) {
    leg.Violation(13, "goodput regressed governor-on (" +
                          std::to_string(on.goodput) + " < " +
                          std::to_string(off.goodput) + " of " +
                          std::to_string(arrivals.size()) + " arrivals)");
  }
  fp = FingerprintInt(fp, off.goodput);
  fp = FingerprintInt(fp, on.goodput);
  fp = FingerprintInt(fp, on.brownouts);
  fp = FingerprintInt(fp, on.infeasible);
}

// ---------------------------------------------------------------------
// Invariant 11: valid-or-typed under forced overload.
// ---------------------------------------------------------------------

/// True when a forced yellow-level brownout rewrites `algorithm` (the
/// ladder's direct entry points; composed names and wrappers are left
/// alone at yellow).
bool YellowRewritable(const std::string& algorithm) {
  if (algorithm.find('+') != std::string::npos) return false;
  return algorithm == "mdav" || algorithm == "cluster_greedy" ||
         algorithm == "ball_cover" || algorithm == "exact_dp" ||
         algorithm == "branch_bound";
}

void CheckForcedOverload(const ChaosOptions& options, const Leg& leg) {
  Rng rng(options.seed, /*stream=*/0x6f766c64ull);  // "ovld"
  uint64_t& fp = leg.report->digest;

  // Forced sheds at admission, forced brownouts at dispatch, dispatch
  // faults draining the retry budget. With the brownout site firing on
  // every hit, the rewrite count is exactly reconcilable against the
  // workload's rewritable algorithms.
  FaultPlan plan;
  plan.seed = options.seed;
  const int shed_mode = rng.UniformInt(0, 2);
  if (shed_mode == 1) {
    plan.sites.push_back(
        {.site = "overload.shed",
         .first_n = static_cast<uint64_t>(rng.UniformInt(1, 3))});
  } else if (shed_mode == 2) {
    plan.sites.push_back({.site = "overload.shed",
                          .probability = 0.2 + 0.4 * rng.UniformDouble()});
  }
  const int brownout_mode = rng.UniformInt(0, 2);
  const bool brownout_every_job = brownout_mode == 1;
  if (brownout_mode == 1) {
    plan.sites.push_back({.site = "overload.brownout", .probability = 1.0});
  } else if (brownout_mode == 2) {
    plan.sites.push_back(
        {.site = "overload.brownout",
         .first_n = static_cast<uint64_t>(rng.UniformInt(2, 6))});
  }
  const double initial_retry_tokens = rng.UniformInt(0, 2);
  if (rng.Bernoulli(0.5)) {
    plan.sites.push_back(
        {.site = "worker.dispatch",
         .first_n = static_cast<uint64_t>(rng.UniformInt(1, 4))});
  }
  ScopedFaultInjection injection(plan);

  // The organic (wall-clock) overload thresholds are out of reach: the
  // plane's behavior here is driven only by the seeded fault plan.
  OverloadOptions overload_options;
  overload_options.codel.target_ms = 1e12;
  overload_options.governor.yellow_delay_ms = 1e12;
  overload_options.governor.red_delay_ms = 1e12;
  overload_options.governor.open_breakers_yellow = 0;
  // Budget-tripped jobs would latch organic red pressure (and climb
  // the ladder without a fault fire); keep the latch off so the
  // rewrite count reconciles exactly against the forced schedule.
  overload_options.memory_latch_updates = 0;
  overload_options.retry_budget.ratio = 0.0;
  overload_options.retry_budget.initial = initial_retry_tokens;
  OverloadControl overload(overload_options);

  QueueOptions queue_options;
  queue_options.capacity = std::max<size_t>(4, options.jobs);
  // The occupancy ramp (a depth-based backstop the service leg
  // exercises) stays out of the way: every shed here is a forced one.
  queue_options.shed_start_fraction = 1.0;
  queue_options.overload = &overload;
  JobQueue queue(queue_options);
  ResultCache cache(16);

  JobBatch batch = SubmitJobs(&queue, options.jobs, kAlgorithms, &rng, leg);
  WorkerPool::Counters workers;
  const std::vector<AnonymizeResponse> responses = CollectJobs(
      &queue, &cache, {.overload = &overload}, &batch, leg, &workers);
  fp = FingerprintInt(fp, workers.brownouts);
  fp = FingerprintInt(fp, workers.retries_attempted);
  fp = FingerprintInt(fp, workers.retries_exhausted);
  fp = FingerprintInt(fp, workers.retry_budget_degraded);
  leg.report->fires = FaultRegistry::Instance().TotalFires();
  fp = FoldFaultLedger(fp);

  // CoDel's organic path is off, so every shed is a forced one, and
  // every forced one must have produced a typed rejection.
  const uint64_t shed_fires = SiteFires("overload.shed");
  const auto shed_typed = static_cast<uint64_t>(
      std::count(batch.rejections.begin(), batch.rejections.end(),
                 ServiceError::kShedOverload));
  if (shed_fires != shed_typed) {
    leg.Violation(11, "shed reconciliation failed: " +
                          std::to_string(shed_fires) + " forced fires vs " +
                          std::to_string(shed_typed) +
                          " typed shed_overload rejections");
  }
  const auto rewritable = static_cast<uint64_t>(
      std::count_if(batch.requests.begin(), batch.requests.end(),
                    [](const AnonymizeRequest& r) {
                      return YellowRewritable(r.algorithm);
                    }));
  if (brownout_every_job && workers.brownouts != rewritable) {
    leg.Violation(11, "brownout reconciliation failed: " +
                          std::to_string(workers.brownouts) +
                          " rewrites vs " + std::to_string(rewritable) +
                          " rewritable admitted jobs");
  }
  const auto stamped = static_cast<uint64_t>(std::count_if(
      responses.begin(), responses.end(), [](const AnonymizeResponse& r) {
        return r.ok() && r.brownout > 0;
      }));
  if (stamped > workers.brownouts) {
    leg.Violation(11, "more brownout-stamped answers (" +
                          std::to_string(stamped) + ") than pool rewrites (" +
                          std::to_string(workers.brownouts) + ")");
  }
  const OverloadCounters counters = overload.counters();
  fp = FingerprintInt(fp, counters.shed);
  fp = FingerprintInt(fp, counters.brownouts);
  fp = FingerprintInt(fp, counters.retry_denied);
}

}  // namespace

void RunOverloadLeg(const ChaosOptions& options, const Leg& leg) {
  CheckGovernorReplay(options.seed, leg);
  CheckGoodput(options.seed, leg);
  CheckForcedOverload(options, leg);
}

}  // namespace chaos
}  // namespace kanon
