#ifndef KANON_SERVICE_OVERLOAD_GOVERNOR_H_
#define KANON_SERVICE_OVERLOAD_GOVERNOR_H_

#include <cstdint>
#include <mutex>
#include <string>

/// \file
/// Brownout ladder: a deterministic health-state machine that trades
/// solve quality for capacity under pressure.
///
/// The paper's NP-hardness result (Theorem 3.2) is usually read as bad
/// news, but for overload control it is an asset: the codebase owns a
/// ladder of progressively cheaper approximations of the same objective
/// (direct solve -> sharded solve -> coreset solve, with quality gaps
/// bounded by E16/E17), so a saturated server can *degrade* instead of
/// tail-dropping. The HealthGovernor watches queue delay and open
/// circuit breakers, and walks a green -> yellow -> red ladder with
/// hysteresis (escalate after `up_ticks` pressured observations, relax
/// after `down_ticks` calm ones). At yellow, admissible jobs are
/// rewritten to their sharded backend; at red, to their coreset backend
/// — at a sampling rate that *halves* for every further `escalate_ticks`
/// of sustained red pressure, down to a floor.
///
/// Everything is deterministic: Update() is a pure function of the
/// signal sequence, Decide() a pure function of (state, job id,
/// algorithm). The seed only enters through the per-job apply hash when
/// `apply_fraction < 1`, and the hash is a fixed mix of (seed, job id) —
/// so a chaos schedule replays every brownout decision bit-identically.

namespace kanon {

enum class BrownoutLevel { kGreen = 0, kYellow = 1, kRed = 2 };

/// "green" / "yellow" / "red".
const char* BrownoutLevelName(BrownoutLevel level);

struct GovernorOptions {
  /// Queue-delay thresholds (measured sojourn of dequeued jobs).
  double yellow_delay_ms = 50.0;
  double red_delay_ms = 200.0;
  /// Open breakers at or above this count signal yellow pressure.
  int open_breakers_yellow = 1;
  /// Consecutive pressured observations before escalating one level.
  int up_ticks = 2;
  /// Consecutive calm observations before relaxing one level.
  int down_ticks = 4;
  /// Sampling rate of red-level coreset rewrites, halved for every
  /// further `escalate_ticks` of sustained red pressure.
  double red_coreset_rate = 0.25;
  double min_coreset_rate = 0.05;
  int escalate_ticks = 8;
  /// Fraction of eligible jobs rewritten at a degraded level (1 = all).
  /// Below 1, the per-job choice hashes (seed, job id) — deterministic.
  double apply_fraction = 1.0;
  uint64_t seed = 0x6272776eull;  // "brwn"
};

/// One pressure observation, typically taken at job dequeue.
struct GovernorSignals {
  double queue_delay_ms = 0.0;
  int open_breakers = 0;
};

/// The governor's verdict for one job.
struct RewriteDecision {
  BrownoutLevel level = BrownoutLevel::kGreen;
  bool rewritten = false;
  /// Backend to run instead (set iff `rewritten`).
  std::string effective;
  /// Coreset sampling rate to apply (> 0 iff `effective` samples).
  double coreset_rate = 0.0;
};

class HealthGovernor {
 public:
  struct Snapshot {
    BrownoutLevel level = BrownoutLevel::kGreen;
    uint64_t transitions = 0;
    /// Red-pressure escalation epochs (each halves the coreset rate).
    uint64_t red_epochs = 0;
  };

  explicit HealthGovernor(GovernorOptions options = {});

  /// Feeds one observation and returns the (possibly new) level.
  BrownoutLevel Update(const GovernorSignals& signals);

  /// The rewrite for a job requesting `algorithm` (with
  /// `requested_coreset_rate`, 0 = default) at the current level.
  /// `force_level`, when above the current level, stands in for it —
  /// the fault-injection hook uses this to exercise the rewrite path
  /// deterministically regardless of organic pressure.
  RewriteDecision Decide(uint64_t job_id, const std::string& algorithm,
                         double requested_coreset_rate,
                         BrownoutLevel force_level =
                             BrownoutLevel::kGreen) const;

  Snapshot snapshot() const;
  BrownoutLevel level() const;

  /// The coreset rate a red-level rewrite would apply right now.
  double RedCoresetRate() const;

 private:
  static BrownoutLevel Pressure(const GovernorSignals& signals,
                                const GovernorOptions& options);
  bool AppliesTo(uint64_t job_id) const;
  double RedCoresetRateLocked() const;

  const GovernorOptions options_;
  mutable std::mutex mu_;
  BrownoutLevel level_ = BrownoutLevel::kGreen;
  int up_streak_ = 0;
  int down_streak_ = 0;
  int red_streak_ = 0;
  uint64_t transitions_ = 0;
  uint64_t red_epochs_ = 0;
};

}  // namespace kanon

#endif  // KANON_SERVICE_OVERLOAD_GOVERNOR_H_
