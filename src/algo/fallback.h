#ifndef KANON_ALGO_FALLBACK_H_
#define KANON_ALGO_FALLBACK_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/anonymizer.h"

/// \file
/// Graceful-degradation chain ("resilient" in the registry).
///
/// The paper proves optimal k-anonymity NP-hard (Theorem 3.2), so the
/// exact solvers can blow up on adversarial inputs — exactly the
/// instances the Theorem 3.1 reduction generates. The fallback chain
/// turns that into a quality/latency trade instead of a failure: it
/// tries stages in decreasing quality order, each under a lenient child
/// RunContext carrying a slice of the remaining deadline, and accepts
/// the first stage that yields a *validated* k-anonymous partition.
/// The terminal stage (suppress_all, O(n)) cannot fail for any
/// 1 <= k <= n, so the chain ALWAYS returns a valid partition; the
/// result's `termination` and `stage` record how far it degraded.
/// branch_bound, the default chain's anytime stage, is seeded with the
/// cluster_greedy+local_search answer: when a budget or deadline stops
/// it, its answer is still never worse than that heuristic's.

namespace kanon {

/// Admission gate consulted per chain stage — the seam the service
/// layer's circuit breakers plug into. Allow() is asked before a
/// non-final stage runs (false = skip it, recorded as
/// `name(skipped:breaker)` in the chain); Record() reports whether the
/// stage produced a valid partition. The terminal stage is never gated.
/// Implementations must be thread-safe: one gate is shared by all
/// workers.
class StageGate {
 public:
  virtual ~StageGate() = default;
  virtual bool Allow(const std::string& stage) = 0;
  virtual void Record(const std::string& stage, bool success) = 0;
};

/// Configuration for FallbackAnonymizer.
struct FallbackOptions {
  /// Registry names tried in order; the last must be unconditionally
  /// feasible (suppress_all). "resilient" itself is rejected.
  std::vector<std::string> stages = {"exact_dp", "branch_bound",
                                     "greedy_cover", "suppress_all"};
  /// Share of the remaining deadline granted to each non-final stage;
  /// the final stage gets everything left.
  double non_final_deadline_fraction = 0.5;
  /// Optional per-stage admission gate (not owned; may be null).
  StageGate* gate = nullptr;
  /// Optional stage factory; null = registry MakeAnonymizer. The service
  /// layer passes the request's wrapper knobs through it, and a traced
  /// replay wraps each stage in a timer. A factory returning nullptr for
  /// a stage name is a caller bug, same as an unknown registry name.
  std::function<std::unique_ptr<Anonymizer>(const std::string&)>
      make_stage;
};

/// Anonymizer that degrades across `options.stages` until one produces
/// a valid partition. See the file comment for the contract.
class FallbackAnonymizer : public Anonymizer {
 public:
  explicit FallbackAnonymizer(FallbackOptions options = {});

  using Anonymizer::Run;
  std::string name() const override;
  AnonymizationResult Run(const Table& table, size_t k,
                          RunContext* ctx) override;

 private:
  FallbackOptions options_;
  std::vector<std::unique_ptr<Anonymizer>> stages_;
};

}  // namespace kanon

#endif  // KANON_ALGO_FALLBACK_H_
