#include "service/overload/governor.h"

#include <algorithm>

#include "algo/registry.h"
#include "coreset/sampler.h"
#include "util/fingerprint.h"
#include "util/logging.h"

namespace kanon {

namespace {

/// True for registry bases with both a sharded_ and a coreset_ variant
/// worth degrading to (same objective, cheaper ladder rung).
bool LadderBase(const std::string& name) {
  return name == "mdav" || name == "cluster_greedy" ||
         name == "ball_cover";
}

/// The ladder's entry point for a *direct* algorithm: itself when it has
/// cheap variants, the workhorse heuristic for the exact solvers (which
/// have no variant of themselves a saturated server should run), empty
/// for everything the governor must leave alone (terminal/cheap stages,
/// composed names, the resilient chain).
std::string DirectBaseFor(const std::string& algorithm) {
  if (LadderBase(algorithm)) return algorithm;
  if (algorithm == "exact_dp" || algorithm == "branch_bound") {
    return "mdav";
  }
  return "";
}

/// The name of `wrapper` around the plain solver `base`.
std::string Wrapped(AlgorithmWrapper wrapper, const std::string& base) {
  return AlgorithmName{.wrappers = {wrapper}, .base = base}.ToString();
}

}  // namespace

const char* BrownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kGreen:
      return "green";
    case BrownoutLevel::kYellow:
      return "yellow";
    case BrownoutLevel::kRed:
      return "red";
  }
  KANON_CHECK(false) << "bad BrownoutLevel " << static_cast<int>(level);
  return "";
}

HealthGovernor::HealthGovernor(GovernorOptions options)
    : options_(options) {}

BrownoutLevel HealthGovernor::Pressure(const GovernorSignals& signals,
                                       const GovernorOptions& options) {
  if (signals.queue_delay_ms >= options.red_delay_ms) {
    return BrownoutLevel::kRed;
  }
  if (signals.queue_delay_ms >= options.yellow_delay_ms ||
      (options.open_breakers_yellow > 0 &&
       signals.open_breakers >= options.open_breakers_yellow)) {
    return BrownoutLevel::kYellow;
  }
  return BrownoutLevel::kGreen;
}

BrownoutLevel HealthGovernor::Update(const GovernorSignals& signals) {
  std::lock_guard<std::mutex> lock(mu_);
  const BrownoutLevel pressure = Pressure(signals, options_);
  // Red-escalation clock: sustained red pressure at red level deepens
  // the coreset degradation one epoch per `escalate_ticks`.
  if (pressure == BrownoutLevel::kRed && level_ == BrownoutLevel::kRed) {
    if (++red_streak_ >= std::max(options_.escalate_ticks, 1)) {
      red_streak_ = 0;
      ++red_epochs_;
    }
  } else {
    red_streak_ = 0;
  }
  if (pressure > level_) {
    down_streak_ = 0;
    if (++up_streak_ >= std::max(options_.up_ticks, 1)) {
      up_streak_ = 0;
      // One rung at a time: a single spike cannot catapult green -> red.
      level_ = static_cast<BrownoutLevel>(static_cast<int>(level_) + 1);
      ++transitions_;
    }
  } else if (pressure < level_) {
    up_streak_ = 0;
    if (++down_streak_ >= std::max(options_.down_ticks, 1)) {
      down_streak_ = 0;
      level_ = static_cast<BrownoutLevel>(static_cast<int>(level_) - 1);
      ++transitions_;
      if (level_ < BrownoutLevel::kRed) red_epochs_ = 0;
    }
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }
  return level_;
}

bool HealthGovernor::AppliesTo(uint64_t job_id) const {
  if (options_.apply_fraction >= 1.0) return true;
  if (options_.apply_fraction <= 0.0) return false;
  const uint64_t hash = FingerprintInt(options_.seed, job_id);
  const double unit =
      static_cast<double>(hash >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return unit < options_.apply_fraction;
}

double HealthGovernor::RedCoresetRateLocked() const {
  double rate = options_.red_coreset_rate;
  for (uint64_t i = 0; i < red_epochs_ && rate > options_.min_coreset_rate;
       ++i) {
    rate /= 2.0;
  }
  return std::max(rate, options_.min_coreset_rate);
}

double HealthGovernor::RedCoresetRate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RedCoresetRateLocked();
}

RewriteDecision HealthGovernor::Decide(uint64_t job_id,
                                       const std::string& algorithm,
                                       double requested_coreset_rate,
                                       BrownoutLevel force_level) const {
  std::lock_guard<std::mutex> lock(mu_);
  RewriteDecision decision;
  decision.level = std::max(level_, force_level);
  if (decision.level == BrownoutLevel::kGreen) return decision;
  if (!AppliesTo(job_id)) return decision;
  // Composed names (+local_search, +annealing) are explicit quality
  // requests; leave them, the resilient chain, and the already-cheap
  // stages alone.
  const std::optional<AlgorithmName> name = ParseAlgorithmName(algorithm);
  if (!name.has_value() || !name->suffixes.empty()) return decision;

  const double red_rate = RedCoresetRateLocked();
  if (name->Has(AlgorithmWrapper::kCoreset)) {
    // Already sampling: at red, clamp the rate down to the ladder's
    // current rung (never up — an explicit aggressive rate stands).
    if (decision.level == BrownoutLevel::kRed) {
      const double requested = requested_coreset_rate > 0.0
                                   ? requested_coreset_rate
                                   : kDefaultCoresetRate;
      if (red_rate < requested) {
        decision.rewritten = true;
        decision.effective = algorithm;
        decision.coreset_rate = red_rate;
      }
    }
    return decision;
  }
  if (!name->wrappers.empty()) {
    // Sharded already sheds one quality rung; red pushes it to coreset.
    if (decision.level == BrownoutLevel::kRed && LadderBase(name->base)) {
      decision.rewritten = true;
      decision.effective = Wrapped(AlgorithmWrapper::kCoreset, name->base);
      decision.coreset_rate = red_rate;
    }
    return decision;
  }
  const std::string base = DirectBaseFor(algorithm);
  if (base.empty()) return decision;
  decision.rewritten = true;
  if (decision.level == BrownoutLevel::kYellow) {
    decision.effective = Wrapped(AlgorithmWrapper::kSharded, base);
  } else {
    decision.effective = Wrapped(AlgorithmWrapper::kCoreset, base);
    decision.coreset_rate = red_rate;
  }
  return decision;
}

HealthGovernor::Snapshot HealthGovernor::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.level = level_;
  snap.transitions = transitions_;
  snap.red_epochs = red_epochs_;
  return snap;
}

BrownoutLevel HealthGovernor::level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_;
}

}  // namespace kanon
