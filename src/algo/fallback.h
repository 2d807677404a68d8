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
/// The default chain is branch_bound -> cluster_greedy+local_search ->
/// suppress_all: branch_bound (up to 28 rows) starts from the
/// heuristic's answer, so a budget or deadline stop never leaves it
/// worse than that heuristic, and above 28 rows the heuristic answers.

namespace kanon {

/// Admission gate consulted per chain stage — the seam the service
/// layer's circuit breakers plug into. Allow() is asked before a
/// non-final stage runs (false = skip it, recorded as
/// `name(skipped:breaker)` in the chain); Record() reports whether the
/// stage produced a valid partition. A stage that produced none because
/// it stopped on kBudget (a structural decline or the node budget) is
/// not recorded. The terminal stage is never gated.
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
  std::vector<std::string> stages = {
      "branch_bound", "cluster_greedy+local_search", "suppress_all"};
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
