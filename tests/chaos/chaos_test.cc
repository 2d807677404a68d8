#include "chaos/chaos.h"

#include <string>

#include "gtest/gtest.h"

/// \file
/// Chaos schedules as unit tests, one suite per leg: seeded schedules
/// uphold invariants 1-13, the same seed replays to the same
/// fingerprint and leg digests, different seeds explore different
/// schedules, and each leg's fault plans actually fire. ci.sh runs the
/// bigger sweeps (100 schedules per build) through the chaos binary.

namespace kanon {
namespace {

ChaosReport RunSmall(uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.jobs = 10;
  options.scratch_dir = ::testing::TempDir();
  return RunChaosSchedule(options);
}

std::string FirstViolation(const ChaosReport& report) {
  return report.violations.empty() ? "" : report.violations.front();
}

// Whole schedules and the service leg (invariants 1-6 and 10).

TEST(ChaosTest, SchedulesUpholdTheInvariants) {
  size_t ok = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const ChaosReport report = RunSmall(seed);
    EXPECT_TRUE(report.passed())
        << "seed " << seed << ": " << FirstViolation(report);
    EXPECT_EQ(report.service.violations + report.net.violations +
                  report.overload.violations,
              report.violations.size())
        << "seed " << seed;
    ok += report.service.ok;
  }
  EXPECT_GT(ok, 0u);  // answers for the oracle to check
}

TEST(ChaosTest, SameSeedReplaysToTheSameFingerprint) {
  for (const uint64_t seed : {3u, 17u}) {
    const ChaosReport first = RunSmall(seed);
    const ChaosReport again = RunSmall(seed);
    EXPECT_EQ(first.fingerprint, again.fingerprint) << "seed " << seed;
    EXPECT_EQ(first.service.digest, again.service.digest) << "seed " << seed;
    EXPECT_EQ(first.service.ok, again.service.ok) << "seed " << seed;
    EXPECT_EQ(first.service.typed, again.service.typed) << "seed " << seed;
    EXPECT_EQ(first.service.fires, again.service.fires) << "seed " << seed;
  }
}

TEST(ChaosTest, DifferentSeedsExploreDifferentSchedules) {
  const ChaosReport a = RunSmall(1);
  const ChaosReport b = RunSmall(2);
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.service.digest, b.service.digest);
}

TEST(ChaosTest, SchedulesActuallyInjectFaults) {
  // A sweep where nothing ever fires tests nothing.
  uint64_t fires = 0;
  for (uint64_t seed = 7; seed <= 12; ++seed) {
    fires += RunSmall(seed).service.fires;
  }
  EXPECT_GT(fires, 0u);
}

// The net leg (invariants 7-9).

TEST(NetChaosTest, SeededSchedulesPassAllInvariants) {
  ChaosLegReport net;
  for (const uint64_t seed : {13u, 14u, 15u}) {
    const ChaosReport report = RunSmall(seed);
    EXPECT_TRUE(report.passed())
        << "seed " << seed << ": " << FirstViolation(report);
    net.ok += report.net.ok;
    net.typed += report.net.typed;
    net.fires += report.net.fires;
  }
  EXPECT_GT(net.ok, 0u);
  EXPECT_GT(net.typed, 0u);
  EXPECT_GT(net.fires, 0u);
}

TEST(NetChaosTest, WorkloadFingerprintIsAPureFunctionOfTheSeed) {
  // Socket interleaving is not deterministic; the generated workload
  // and fault plan are.
  const ChaosReport first = RunSmall(7);
  const ChaosReport again = RunSmall(7);
  EXPECT_EQ(first.net.digest, again.net.digest);
  EXPECT_EQ(first.net.requests, again.net.requests);
  EXPECT_NE(first.net.digest, 0u);
  EXPECT_NE(RunSmall(8).net.digest, first.net.digest);
}

// The overload leg (invariants 11-13).

TEST(OverloadChaosTest, SeededSchedulesPassAllInvariants) {
  ChaosLegReport overload;
  for (const uint64_t seed : {16u, 17u, 18u}) {
    const ChaosReport report = RunSmall(seed);
    EXPECT_TRUE(report.passed())
        << "seed " << seed << ": " << FirstViolation(report);
    overload.ok += report.overload.ok;
    overload.fires += report.overload.fires;
  }
  EXPECT_GT(overload.ok, 0u);
  EXPECT_GT(overload.fires, 0u);
}

TEST(OverloadChaosTest, DigestIsAPureFunctionOfTheSeed) {
  const ChaosReport first = RunSmall(11);
  const ChaosReport again = RunSmall(11);
  EXPECT_EQ(first.overload.digest, again.overload.digest);
  EXPECT_EQ(first.overload.ok, again.overload.ok);
  EXPECT_EQ(first.overload.typed, again.overload.typed);
  EXPECT_EQ(first.overload.fires, again.overload.fires);
  EXPECT_NE(RunSmall(12).overload.digest, first.overload.digest);
}

}  // namespace
}  // namespace kanon
