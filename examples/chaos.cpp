// chaos — seeded chaos schedules against the serving stack
// (chaos/chaos.h). Each schedule runs the service, net and overload
// legs from one seed and checks invariants 1-13.
//
// Usage:
//   ./chaos [--chaos-seed=N] [--schedules=N] [--jobs=N] [--scratch=DIR]
//           [--version]
//
//   Runs schedules with seeds chaos-seed, chaos-seed+1, ... and exits
//   nonzero if any schedule reports a violation. The first seed runs
//   twice and its fingerprints are compared, so every invocation also
//   proves seed-reproducibility. Each schedule prints one line; a leg's
//   R/O/T/F are its requests, OK answers, typed refusals and fault fires.
//   At the end each leg prints its own verdict over all schedules.
//
// Exit codes: 0 all schedules passed, 1 usage error, 3 invariant
// violation, 4 reproducibility failure.

#include <cstdio>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "chaos/chaos.h"
#include "util/build_info.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace kanon;
  const CommandLine cl = CommandLine::Parse(argc, argv);

  for (const std::string& flag : cl.UnknownFlags(
           {"chaos-seed", "schedules", "jobs", "scratch", "version"})) {
    std::cerr << "chaos: unknown flag --" << flag << "\n";
    return 1;
  }
  if (cl.GetBool("version", false)) {
    std::cout << "chaos " << BuildInfoString() << "\n";
    return 0;
  }

  const StatusOr<long long> seed =
      cl.GetValidatedInt("chaos-seed", 1, 0,
                         std::numeric_limits<long long>::max());
  const StatusOr<long long> schedules =
      cl.GetValidatedInt("schedules", 20, 1, 1000000);
  const StatusOr<long long> jobs = cl.GetValidatedInt("jobs", 24, 1, 4096);
  for (const auto* flag : {&seed, &schedules, &jobs}) {
    if (!flag->ok()) {
      std::cerr << "error: " << flag->status().message() << "\n";
      return 1;
    }
  }

  ChaosOptions options;
  options.jobs = static_cast<size_t>(*jobs);
  options.scratch_dir = cl.GetString("scratch", "/tmp");

  // Reproducibility gate: the first seed, run twice, must produce the
  // same fingerprint bit-for-bit.
  options.seed = static_cast<uint64_t>(*seed);
  const ChaosReport first = RunChaosSchedule(options);
  const ChaosReport again = RunChaosSchedule(options);
  if (first.fingerprint != again.fingerprint) {
    std::cerr << "chaos: seed " << options.seed
              << " is NOT reproducible: fingerprints " << first.fingerprint
              << " vs " << again.fingerprint << "\n";
    return 4;
  }

  constexpr std::pair<const char*, ChaosLegReport ChaosReport::*> kLegs[] = {
      {"service", &ChaosReport::service},
      {"net", &ChaosReport::net},
      {"overload", &ChaosReport::overload}};
  int failures = 0;
  long long leg_failures[std::size(kLegs)] = {};
  for (long long i = 0; i < *schedules; ++i) {
    options.seed = static_cast<uint64_t>(*seed + i);
    const ChaosReport report = (i == 0) ? first : RunChaosSchedule(options);
    std::printf("seed=%llu", static_cast<unsigned long long>(report.seed));
    for (size_t l = 0; l < std::size(kLegs); ++l) {
      const ChaosLegReport& leg = report.*kLegs[l].second;
      std::printf(" %s=%zu/%zu/%zu/%llu", kLegs[l].first, leg.requests,
                  leg.ok, leg.typed,
                  static_cast<unsigned long long>(leg.fires));
      if (leg.violations > 0) ++leg_failures[l];
    }
    std::printf(" fingerprint=%016llx %s\n",
                static_cast<unsigned long long>(report.fingerprint),
                report.passed() ? "PASS" : "FAIL");
    if (!report.passed()) {
      ++failures;
      for (const std::string& violation : report.violations) {
        std::cerr << "  violation: " << violation << "\n";
      }
    }
  }
  for (size_t l = 0; l < std::size(kLegs); ++l) {
    if (leg_failures[l] == 0) {
      std::cout << "chaos: " << kLegs[l].first << " leg passed all "
                << *schedules << " schedule(s)\n";
    } else {
      std::cerr << "chaos: " << kLegs[l].first << " leg FAILED in "
                << leg_failures[l] << " schedule(s)\n";
    }
  }
  if (failures > 0) {
    std::cerr << "chaos: " << failures << " schedule(s) FAILED\n";
    return 3;
  }
  std::cout << "chaos: all " << *schedules << " schedule(s) passed\n";
  return 0;
}
