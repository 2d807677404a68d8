#include "algo/fallback.h"

#include <sstream>

#include "algo/registry.h"
#include "core/partition.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kanon {

/// Share of the remaining deadline granted to each non-final stage; the
/// final stage gets everything left.
constexpr double kNonFinalDeadlineFraction = 0.5;

FallbackAnonymizer::FallbackAnonymizer(FallbackOptions options)
    : options_(std::move(options)) {
  KANON_CHECK(!options_.stages.empty());
  stages_.reserve(options_.stages.size());
  for (const std::string& stage : options_.stages) {
    KANON_CHECK(stage != "resilient") << "fallback chain cannot nest itself";
    auto algo = options_.make_stage ? options_.make_stage(stage)
                                    : MakeAnonymizer(stage);
    KANON_CHECK(algo != nullptr) << "unknown chain stage: " << stage;
    stages_.push_back(std::move(algo));
  }
}

std::string FallbackAnonymizer::name() const { return "resilient"; }

AnonymizationResult FallbackAnonymizer::Run(const Table& table, size_t k,
                                            RunContext* ctx) {
  const RowId n = table.num_rows();
  KANON_CHECK_GE(k, 1u);
  KANON_CHECK_GE(static_cast<size_t>(n), k);

  WallTimer timer;
  // First limit observed across the chain; kNone iff the accepted stage
  // is the first one and it ran to completion. A later deadline or
  // cancel replaces a budget latch (a structural decline): it makes the
  // answer this request's artifact, which the service must not cache.
  StopReason first_stop = StopReason::kNone;
  const auto latch = [&first_stop](StopReason stop) {
    if (first_stop == StopReason::kNone || first_stop == StopReason::kBudget) {
      if (stop != StopReason::kNone) first_stop = stop;
    }
  };
  std::ostringstream chain;

  for (size_t i = 0; i < stages_.size(); ++i) {
    // If the caller's own limit has tripped, that — not a stage's
    // structural decline — is why the chain degrades; record it. Such an
    // attempt is doomed for reasons that say nothing about the stage, so
    // its outcome must not move the breaker either.
    const bool caller_stopped = ctx->ShouldStop();
    if (caller_stopped) latch(ctx->stop_reason());
    const bool last = (i + 1 == stages_.size());
    // A tripped breaker skips the stage outright: when a stage has been
    // failing for everyone, burning a deadline slice on it again only
    // steals time from the stages that still work. Never the terminal
    // stage — the always-answers contract outranks the breaker.
    if (!last && options_.gate != nullptr &&
        !options_.gate->Allow(stages_[i]->name())) {
      if (i > 0) chain << "->";
      chain << stages_[i]->name() << "(skipped:breaker)";
      continue;
    }
    RunContext child(ctx);  // observes ctx's cancellation
    child.set_lenient(true);
    if (ctx->has_deadline()) {
      const double remaining = ctx->remaining_millis();
      child.set_deadline_after_millis(
          last ? remaining : remaining * kNonFinalDeadlineFraction);
    }
    if (ctx->node_budget() > 0) {
      const uint64_t used = ctx->nodes_charged();
      child.set_node_budget(
          ctx->node_budget() > used ? ctx->node_budget() - used : 1);
    }
    if (ctx->memory_limit_bytes() > 0) {
      child.set_memory_limit_bytes(ctx->memory_limit_bytes());
    }

    AnonymizationResult attempt = stages_[i]->Run(table, k, &child);
    ctx->ChargeNodes(child.nodes_charged());
    latch(child.stop_reason());

    const bool valid =
        !attempt.partition.groups.empty() &&
        IsValidPartition(attempt.partition, n, k, n);
    if (!last && options_.gate != nullptr && !caller_stopped) {
      options_.gate->Record(stages_[i]->name(), valid);
    }
    if (i > 0) chain << "->";
    chain << stages_[i]->name() << '(';
    if (valid) {
      chain << (child.stop_reason() == StopReason::kNone
                    ? "ok"
                    : StopReasonName(child.stop_reason()));
    } else {
      chain << "declined:" << StopReasonName(child.stop_reason());
    }
    chain << ')';

    if (valid) {
      attempt.stage = stages_[i]->name();
      attempt.termination = first_stop;
      attempt.seconds = timer.Seconds();
      std::ostringstream notes;
      notes << "chain=" << chain.str() << " [" << attempt.notes << "]";
      attempt.notes = notes.str();
      return attempt;
    }
  }
  KANON_CHECK(false) << "fallback chain exhausted: " << chain.str()
                     << " (terminal stage must be unconditionally feasible)";
  return {};
}

}  // namespace kanon
