#include "service/overload/overload.h"

#include <string>
#include <vector>

#include "fault/fault.h"
#include "gtest/gtest.h"
#include "service/overload/codel.h"
#include "service/overload/estimator.h"
#include "service/overload/governor.h"
#include "service/overload/retry_budget.h"

/// \file
/// Unit contracts of the overload-control building blocks: the decaying
/// solve-time estimator stays optimistic, the CoDel controller only
/// sheds on *standing* delay, the retry budget caps retries at a ratio
/// of successes, and the brownout governor climbs its ladder with
/// hysteresis and decides rewrites deterministically.

namespace kanon {
namespace {

// ---------------------------------------------------------------------
// SolveTimeEstimator

TEST(SolveTimeEstimatorTest, NoObservationsMeansNoOpinion) {
  SolveTimeEstimator estimator;
  EXPECT_EQ(estimator.OptimisticMillis("mdav"), 0.0);
  EXPECT_EQ(estimator.QuantileMillis("mdav", 0.5), 0.0);
  EXPECT_EQ(estimator.Observations("mdav"), 0u);
}

TEST(SolveTimeEstimatorTest, OptimisticIsTheFastestBucketLowerEdge) {
  SolveTimeEstimator estimator;
  // 300ms lands in bucket (256, 512]; its lower edge is 256.
  estimator.Record("mdav", 300.0);
  estimator.Record("mdav", 400.0);
  EXPECT_EQ(estimator.OptimisticMillis("mdav"), 256.0);
  // One faster observation drags the optimistic bound down with it:
  // 3ms lands in (2, 4], lower edge 2.
  estimator.Record("mdav", 3.0);
  EXPECT_EQ(estimator.OptimisticMillis("mdav"), 2.0);
  // Backends do not share histograms.
  EXPECT_EQ(estimator.OptimisticMillis("exact_dp"), 0.0);
}

TEST(SolveTimeEstimatorTest, SubMillisecondObservationsNeverReject) {
  SolveTimeEstimator estimator;
  estimator.Record("mdav", 0.4);
  // Bucket 0's lower edge is 0 — "no defensible reason to reject".
  EXPECT_EQ(estimator.OptimisticMillis("mdav"), 0.0);
  EXPECT_EQ(estimator.Observations("mdav"), 1u);
}

TEST(SolveTimeEstimatorTest, QuantileTracksTheDistribution) {
  SolveTimeEstimator estimator;
  for (int i = 0; i < 90; ++i) estimator.Record("mdav", 10.0);  // (8,16]
  for (int i = 0; i < 10; ++i) estimator.Record("mdav", 700.0);
  EXPECT_EQ(estimator.QuantileMillis("mdav", 0.5), 16.0);
  EXPECT_EQ(estimator.QuantileMillis("mdav", 0.99), 1024.0);
}

TEST(SolveTimeEstimatorTest, DecayForgetsTheDistantPast) {
  EstimatorOptions options;
  options.decay_window = 8;
  SolveTimeEstimator estimator(options);
  for (int i = 0; i < 8; ++i) estimator.Record("mdav", 1000.0);
  const uint64_t after_decay = estimator.Observations("mdav");
  // The halving happened at the window boundary.
  EXPECT_LT(after_decay, 8u);
  // Fresh fast observations now dominate quickly.
  for (int i = 0; i < 8; ++i) estimator.Record("mdav", 3.0);
  EXPECT_EQ(estimator.OptimisticMillis("mdav"), 2.0);
  EXPECT_LE(estimator.QuantileMillis("mdav", 0.5), 4.0);
}

// ---------------------------------------------------------------------
// CoDelAdmission

TEST(CoDelAdmissionTest, BelowTargetNeverSheds) {
  CoDelAdmission codel({.target_ms = 20.0, .interval_ms = 100.0});
  for (double t = 0.0; t < 1000.0; t += 10.0) {
    codel.OnSojourn(5.0, t);
    EXPECT_FALSE(codel.ShouldShed(t));
  }
  EXPECT_EQ(codel.snapshot().sheds, 0u);
  EXPECT_EQ(codel.snapshot().shed_windows, 0u);
}

TEST(CoDelAdmissionTest, BriefSpikeDoesNotShed) {
  CoDelAdmission codel({.target_ms = 20.0, .interval_ms = 100.0});
  // Above target for less than one interval, then calm again.
  codel.OnSojourn(50.0, 0.0);
  codel.OnSojourn(50.0, 50.0);
  codel.OnSojourn(5.0, 90.0);
  codel.OnSojourn(50.0, 120.0);
  EXPECT_FALSE(codel.ShouldShed(130.0));
  EXPECT_FALSE(codel.snapshot().shedding);
}

TEST(CoDelAdmissionTest, StandingDelayEntersSheddingAndRecovers) {
  CoDelAdmission codel({.target_ms = 20.0, .interval_ms = 100.0});
  // Sojourn stays above target for a full interval: standing backlog.
  for (double t = 0.0; t <= 120.0; t += 10.0) codel.OnSojourn(60.0, t);
  EXPECT_TRUE(codel.snapshot().shedding);
  EXPECT_TRUE(codel.ShouldShed(125.0));
  EXPECT_EQ(codel.snapshot().sheds, 1u);
  EXPECT_EQ(codel.snapshot().shed_windows, 1u);
  // One below-target dequeue ends the episode.
  codel.OnSojourn(5.0, 130.0);
  EXPECT_FALSE(codel.snapshot().shedding);
  EXPECT_FALSE(codel.ShouldShed(135.0));
}

TEST(CoDelAdmissionTest, SheddingScheduleAcceleratesUnderSustainedDelay) {
  CoDelAdmission codel({.target_ms = 20.0, .interval_ms = 100.0});
  for (double t = 0.0; t <= 120.0; t += 10.0) codel.OnSojourn(60.0, t);
  ASSERT_TRUE(codel.snapshot().shedding);
  // Drive a long stream of arrivals while the backlog persists; the
  // interval/sqrt(n) control law must shed ever more frequently, so the
  // second 500ms of the episode sheds strictly more than the first.
  uint64_t first_half = 0;
  uint64_t second_half = 0;
  for (double t = 125.0; t < 625.0; t += 5.0) {
    codel.OnSojourn(60.0, t);
    if (codel.ShouldShed(t)) ++first_half;
  }
  for (double t = 625.0; t < 1125.0; t += 5.0) {
    codel.OnSojourn(60.0, t);
    if (codel.ShouldShed(t)) ++second_half;
  }
  EXPECT_GT(first_half, 0u);
  EXPECT_GT(second_half, first_half);
}

// ---------------------------------------------------------------------
// RetryBudget

TEST(RetryBudgetTest, InitialTokensAllowColdRetries) {
  RetryBudget budget({.ratio = 0.1, .initial = 2.0, .cap = 64.0});
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
  const RetryBudget::Snapshot snap = budget.snapshot();
  EXPECT_EQ(snap.granted, 2u);
  EXPECT_EQ(snap.denied, 1u);
}

TEST(RetryBudgetTest, SuccessesRefillAtTheRatio) {
  RetryBudget budget({.ratio = 0.5, .initial = 0.0, .cap = 64.0});
  EXPECT_FALSE(budget.TryWithdraw());
  budget.OnSuccess();  // 0.5 tokens: not a whole one yet
  EXPECT_FALSE(budget.TryWithdraw());
  budget.OnSuccess();  // 1.0
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
}

TEST(RetryBudgetTest, CapBoundsBankedCredit) {
  RetryBudget budget({.ratio = 1.0, .initial = 0.0, .cap = 3.0});
  for (int i = 0; i < 100; ++i) budget.OnSuccess();
  EXPECT_EQ(budget.snapshot().tokens, 3.0);
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
}

// ---------------------------------------------------------------------
// HealthGovernor

GovernorOptions FastGovernor() {
  GovernorOptions options;
  options.yellow_delay_ms = 50.0;
  options.red_delay_ms = 200.0;
  options.up_ticks = 2;
  options.down_ticks = 3;
  return options;
}

GovernorSignals Delay(double ms) {
  GovernorSignals signals;
  signals.queue_delay_ms = ms;
  return signals;
}

TEST(HealthGovernorTest, EscalatesOneRungAtATimeWithHysteresis) {
  HealthGovernor governor(FastGovernor());
  // One pressured tick is not enough (up_ticks = 2).
  EXPECT_EQ(governor.Update(Delay(300.0)), BrownoutLevel::kGreen);
  // A single spike cannot catapult green -> red: red pressure first
  // lands the governor at yellow.
  EXPECT_EQ(governor.Update(Delay(300.0)), BrownoutLevel::kYellow);
  EXPECT_EQ(governor.Update(Delay(300.0)), BrownoutLevel::kYellow);
  EXPECT_EQ(governor.Update(Delay(300.0)), BrownoutLevel::kRed);
  EXPECT_EQ(governor.snapshot().transitions, 2u);
}

TEST(HealthGovernorTest, RelaxesOnlyAfterDownTicksOfCalm) {
  HealthGovernor governor(FastGovernor());
  for (int i = 0; i < 2; ++i) governor.Update(Delay(100.0));
  ASSERT_EQ(governor.level(), BrownoutLevel::kYellow);
  // Calm ticks interrupted by pressure reset the down streak.
  governor.Update(Delay(0.0));
  governor.Update(Delay(0.0));
  governor.Update(Delay(100.0));
  EXPECT_EQ(governor.level(), BrownoutLevel::kYellow);
  governor.Update(Delay(0.0));
  governor.Update(Delay(0.0));
  EXPECT_EQ(governor.Update(Delay(0.0)), BrownoutLevel::kGreen);
}

TEST(HealthGovernorTest, OpenBreakersSignalYellowPressure) {
  GovernorOptions options = FastGovernor();
  options.open_breakers_yellow = 1;
  HealthGovernor governor(options);
  GovernorSignals signals;
  signals.open_breakers = 1;
  governor.Update(signals);
  EXPECT_EQ(governor.Update(signals), BrownoutLevel::kYellow);
}

TEST(HealthGovernorTest, YellowRewritesDirectBackendsToSharded) {
  HealthGovernor governor(FastGovernor());
  const RewriteDecision mdav =
      governor.Decide(1, "mdav", 0.0, BrownoutLevel::kYellow);
  EXPECT_TRUE(mdav.rewritten);
  EXPECT_EQ(mdav.effective, "sharded_mdav");
  EXPECT_EQ(mdav.coreset_rate, 0.0);
  // Exact solvers have no cheap variant of themselves: they degrade to
  // the workhorse heuristic's ladder.
  const RewriteDecision exact =
      governor.Decide(2, "exact_dp", 0.0, BrownoutLevel::kYellow);
  EXPECT_TRUE(exact.rewritten);
  EXPECT_EQ(exact.effective, "sharded_mdav");
}

TEST(HealthGovernorTest, RedRewritesToCoresetWithTheLadderRate) {
  HealthGovernor governor(FastGovernor());
  const RewriteDecision decision =
      governor.Decide(1, "cluster_greedy", 0.0, BrownoutLevel::kRed);
  EXPECT_TRUE(decision.rewritten);
  EXPECT_EQ(decision.effective, "coreset_cluster_greedy");
  EXPECT_EQ(decision.coreset_rate, 0.25);
  // sharded_* at red drops one more rung, to its coreset sibling.
  const RewriteDecision sharded =
      governor.Decide(2, "sharded_mdav", 0.0, BrownoutLevel::kRed);
  EXPECT_TRUE(sharded.rewritten);
  EXPECT_EQ(sharded.effective, "coreset_mdav");
}

TEST(HealthGovernorTest, LeavesExplicitQualityRequestsAlone) {
  HealthGovernor governor(FastGovernor());
  // Composed names are explicit quality asks; suppress_all is already
  // terminal; the resilient chain manages its own degradation.
  for (const char* name :
       {"mdav+local_search", "suppress_all", "resilient", "mondrian"}) {
    const RewriteDecision decision =
        governor.Decide(1, name, 0.0, BrownoutLevel::kRed);
    EXPECT_FALSE(decision.rewritten) << name;
  }
}

TEST(HealthGovernorTest, RedOnlyClampsCoresetRatesDownNeverUp) {
  HealthGovernor governor(FastGovernor());
  // Requested 0.5 > ladder 0.25: clamp down.
  const RewriteDecision clamp =
      governor.Decide(1, "coreset_mdav", 0.5, BrownoutLevel::kRed);
  EXPECT_TRUE(clamp.rewritten);
  EXPECT_EQ(clamp.effective, "coreset_mdav");
  EXPECT_EQ(clamp.coreset_rate, 0.25);
  // Requested 0.1 < ladder 0.25: an explicit aggressive rate stands.
  const RewriteDecision keep =
      governor.Decide(2, "coreset_mdav", 0.1, BrownoutLevel::kRed);
  EXPECT_FALSE(keep.rewritten);
  // At yellow, already-sampling backends are never touched.
  const RewriteDecision yellow =
      governor.Decide(3, "coreset_mdav", 0.5, BrownoutLevel::kYellow);
  EXPECT_FALSE(yellow.rewritten);
}

TEST(HealthGovernorTest, SustainedRedHalvesTheCoresetRateToAFloor) {
  GovernorOptions options = FastGovernor();
  options.escalate_ticks = 2;
  options.red_coreset_rate = 0.4;
  options.min_coreset_rate = 0.05;
  HealthGovernor governor(options);
  for (int i = 0; i < 2; ++i) governor.Update(Delay(300.0));  // yellow
  for (int i = 0; i < 2; ++i) governor.Update(Delay(300.0));  // red
  EXPECT_EQ(governor.RedCoresetRate(), 0.4);
  governor.Update(Delay(300.0));
  governor.Update(Delay(300.0));  // one escalation epoch
  EXPECT_EQ(governor.RedCoresetRate(), 0.2);
  for (int i = 0; i < 20; ++i) governor.Update(Delay(300.0));
  EXPECT_EQ(governor.RedCoresetRate(), 0.05);  // floor holds
  EXPECT_GT(governor.snapshot().red_epochs, 3u);
}

TEST(HealthGovernorTest, ApplyFractionIsDeterministicPerJobId) {
  GovernorOptions options = FastGovernor();
  options.apply_fraction = 0.5;
  options.seed = 77;
  HealthGovernor a(options);
  HealthGovernor b(options);
  size_t rewritten = 0;
  for (uint64_t id = 0; id < 200; ++id) {
    const RewriteDecision da =
        a.Decide(id, "mdav", 0.0, BrownoutLevel::kYellow);
    const RewriteDecision db =
        b.Decide(id, "mdav", 0.0, BrownoutLevel::kYellow);
    EXPECT_EQ(da.rewritten, db.rewritten) << "job " << id;
    EXPECT_EQ(da.effective, db.effective) << "job " << id;
    if (da.rewritten) ++rewritten;
  }
  // The hash actually samples: neither none nor all.
  EXPECT_GT(rewritten, 50u);
  EXPECT_LT(rewritten, 150u);
}

// ---------------------------------------------------------------------
// OverloadControl (the composed plane)

TEST(OverloadControlTest, DeadlineInfeasibleNeedsAnOpinion) {
  OverloadControl overload;
  // No observations: never reject a job with time on the clock.
  EXPECT_FALSE(overload.DeadlineInfeasible("mdav", 1.0));
  // A deadline already in the past is always infeasible.
  EXPECT_TRUE(overload.DeadlineInfeasible("mdav", -1.0));
  // Teach the estimator that mdav takes ~300ms; 50ms of budget is now
  // provably not enough (optimistic bound 256ms), 400ms still is.
  overload.RecordOutcome("mdav", 300.0, true, false);
  EXPECT_TRUE(overload.DeadlineInfeasible("mdav", 50.0));
  EXPECT_FALSE(overload.DeadlineInfeasible("mdav", 400.0));
}

TEST(OverloadControlTest, CacheHitsDoNotPoisonTheEstimator) {
  OverloadControl overload;
  overload.RecordOutcome("mdav", 0.01, true, /*cache_hit=*/true);
  EXPECT_EQ(overload.estimator().Observations("mdav"), 0u);
}

TEST(OverloadControlTest, ForcedShedFaultFiresRegardlessOfCoDel) {
  OverloadControl overload;
  FaultPlan plan;
  plan.seed = 1;
  plan.sites.push_back({.site = "overload.shed", .first_n = 2});
  ScopedFaultInjection armed(plan);
  EXPECT_TRUE(overload.ShouldShed(0.0));
  EXPECT_TRUE(overload.ShouldShed(1.0));
  EXPECT_FALSE(overload.ShouldShed(2.0));
}

TEST(OverloadControlTest, ForcedBrownoutForcesAtLeastYellow) {
  OverloadControl overload;
  FaultPlan plan;
  plan.seed = 1;
  plan.sites.push_back({.site = "overload.brownout", .first_n = 1});
  ScopedFaultInjection armed(plan);
  const RewriteDecision forced = overload.MaybeRewrite(1, "mdav", 0.0);
  EXPECT_TRUE(forced.rewritten);
  EXPECT_EQ(forced.effective, "sharded_mdav");
  // The fault exhausted: back to the governor's organic (green) level.
  const RewriteDecision organic = overload.MaybeRewrite(2, "mdav", 0.0);
  EXPECT_FALSE(organic.rewritten);
}

TEST(OverloadControlTest, DisabledGovernorNeverRewrites) {
  OverloadOptions options;
  options.governor_enabled = false;  // --brownout=off
  OverloadControl overload(options);
  FaultPlan plan;
  plan.seed = 1;
  plan.sites.push_back({.site = "overload.brownout", .probability = 1.0});
  ScopedFaultInjection armed(plan);
  EXPECT_FALSE(overload.MaybeRewrite(1, "mdav", 0.0).rewritten);
  EXPECT_FALSE(overload.governor_enabled());
}

TEST(OverloadControlTest, RetryDenialsAreCounted) {
  OverloadOptions options;
  options.retry_budget.initial = 1.0;
  options.retry_budget.ratio = 0.0;
  OverloadControl overload(options);
  EXPECT_TRUE(overload.AllowRetry());
  EXPECT_FALSE(overload.AllowRetry());
  EXPECT_FALSE(overload.AllowRetry());
}

}  // namespace
}  // namespace kanon
