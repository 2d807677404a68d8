#ifndef KANON_CHAOS_LEGS_H_
#define KANON_CHAOS_LEGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "data/table.h"
#include "service/queue.h"
#include "service/worker_pool.h"
#include "util/random.h"

/// \file
/// The three legs of a chaos schedule and the pieces they share.
/// Private to src/chaos; the public entry point is chaos/chaos.h.

namespace kanon {
namespace chaos {

/// One leg in progress: its section of the report and the schedule's
/// violation list.
struct Leg {
  ChaosLegReport* report;
  std::vector<std::string>* violations;
  /// The invariant the leg's per-answer checks report under.
  int invariant;

  void Violation(int number, const std::string& what) const {
    ++report->violations;
    violations->push_back("invariant " + std::to_string(number) + ": " +
                          what);
  }
};

/// The answer oracle: empty when `csv` answers a request to anonymize
/// `input` at `k` with reported `cost`, otherwise what is wrong with it.
std::string AnswerViolation(const Table& input, size_t k,
                            const std::string& csv, uint64_t cost);

/// Draws one request with an algorithm from `algorithms`. Coreset and
/// sharded jobs get tables large enough that sampling and shard
/// planning actually cut; the rest stay tiny so exact solvers finish.
AnonymizeRequest DrawRequest(Rng* rng,
                             std::span<const char* const> algorithms);

/// Folds each fault site the armed plan hit (name, hits, fires) into
/// `fp`. Sites that other legs registered but this plan never hit are
/// left out, so a digest does not depend on the legs that ran before.
uint64_t FoldFaultLedger(uint64_t fp);

/// Fires of fault site `name` under the armed plan.
uint64_t SiteFires(const std::string& name);

/// The jobs a leg submits to its queue, all before its worker starts.
struct JobBatch {
  /// Admitted (prepared) requests and their tickets, in order.
  std::vector<AnonymizeRequest> requests;
  std::vector<JobQueue::Ticket> tickets;
  /// The typed error of each admission rejection.
  std::vector<ServiceError> rejections;
};

/// Draws `jobs` requests, prepares and submits each to `queue`, and
/// folds ticket ids and rejections into the leg's digest.
JobBatch SubmitJobs(JobQueue* queue, size_t jobs,
                    std::span<const char* const> algorithms, Rng* rng,
                    const Leg& leg);

/// Starts a one-worker pool over `queue` (fixed retry and breaker
/// policy on top of `pool_options`), closes the queue, checks and folds
/// every answer of `batch`, and joins the pool. Returns the answers in
/// ticket order; `*counters` gets the pool's counters.
std::vector<AnonymizeResponse> CollectJobs(JobQueue* queue,
                                           ResultCache* cache,
                                           WorkerPoolOptions pool_options,
                                           JobBatch* batch, const Leg& leg,
                                           WorkerPool::Counters* counters);

/// Invariants 1-6 and 10.
void RunServiceLeg(const ChaosOptions& options, const Leg& leg);
/// Invariants 7-9.
void RunNetLeg(const ChaosOptions& options, const Leg& leg);
/// Invariants 11-13.
void RunOverloadLeg(const ChaosOptions& options, const Leg& leg);

}  // namespace chaos
}  // namespace kanon

#endif  // KANON_CHAOS_LEGS_H_
