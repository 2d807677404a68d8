#include "chaos/chaos.h"

#include <utility>

#include "algo/registry.h"
#include "chaos/legs.h"
#include "core/anonymity.h"
#include "data/csv_table.h"
#include "data/generators/uniform.h"
#include "fault/fault.h"
#include "util/fingerprint.h"
#include "util/parallel.h"

namespace kanon {
namespace chaos {

std::string AnswerViolation(const Table& input, size_t k,
                            const std::string& csv, uint64_t cost) {
  const StatusOr<Table> parsed = ParseTableCsv(csv);
  if (!parsed.ok()) {
    return "answer does not parse: " + parsed.status().ToString();
  }
  const Table& output = *parsed;
  if (output.num_rows() != input.num_rows() ||
      output.num_columns() != input.num_columns()) {
    return "answer is " + std::to_string(output.num_rows()) + "x" +
           std::to_string(output.num_columns()) + " for a " +
           std::to_string(input.num_rows()) + "x" +
           std::to_string(input.num_columns()) + " request";
  }
  for (ColId c = 0; c < input.num_columns(); ++c) {
    if (output.schema().attribute_name(c) !=
        input.schema().attribute_name(c)) {
      return "answer header differs from the request's";
    }
  }
  for (RowId r = 0; r < input.num_rows(); ++r) {
    const std::vector<std::string> in = input.DecodeRow(r);
    const std::vector<std::string> out = output.DecodeRow(r);
    for (size_t c = 0; c < in.size(); ++c) {
      if (out[c] != in[c] && out[c] != "*") {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               " is '" + out[c] + "', neither the input's '" + in[c] +
               "' nor *";
      }
    }
  }
  if (!IsKAnonymous(output, k)) {
    return "answer is not " + std::to_string(k) + "-anonymous";
  }
  const size_t stars = output.CountSuppressedCells();
  if (stars != cost) {
    return "reported cost " + std::to_string(cost) + " but the answer has " +
           std::to_string(stars) + " stars";
  }
  return "";
}

AnonymizeRequest DrawRequest(Rng* rng,
                             std::span<const char* const> algorithms) {
  AnonymizeRequest request;
  request.algorithm =
      algorithms[rng->Uniform(static_cast<uint32_t>(algorithms.size()))];
  const AlgorithmName name = ParseAlgorithmName(request.algorithm).value();
  const bool coreset = name.Has(AlgorithmWrapper::kCoreset);
  const bool sharded = name.Has(AlgorithmWrapper::kSharded);
  UniformTableOptions table;
  // Coreset jobs need enough rows that the sampler's min_sample floor
  // does not short-circuit to the direct path; sharded jobs need
  // shards * (2k-1) rows so planning actually cuts (k <= 4 below, so
  // 40 rows feed at least 2 shards of 7).
  table.num_rows =
      coreset   ? static_cast<uint32_t>(rng->UniformInt(72, 120))
      : sharded ? static_cast<uint32_t>(rng->UniformInt(40, 80))
                : static_cast<uint32_t>(rng->UniformInt(6, 14));
  table.num_columns = static_cast<uint32_t>(rng->UniformInt(2, 4));
  table.alphabet = static_cast<uint32_t>(rng->UniformInt(2, 4));
  request.csv_text = TableToCsv(UniformTable(table, rng));
  if (coreset) {
    request.coreset_rate = 0.25;
    // +1 keeps the drawn seed nonzero (0 means "use the default seed").
    request.coreset_seed = static_cast<uint64_t>(rng->Next()) + 1;
  }
  if (sharded) {
    request.shards = static_cast<size_t>(rng->UniformInt(2, 4));
  }
  request.k = static_cast<size_t>(rng->UniformInt(2, 4));
  request.priority = rng->UniformInt(-2, 2);
  // Node budgets stand in for wall-clock deadlines: they trip at the
  // same node on every run, where a deadline would not. Some jobs get
  // one tight enough to force degradation.
  if (rng->Bernoulli(0.3)) {
    request.node_budget = static_cast<uint64_t>(rng->UniformInt(50, 5000));
  }
  request.emit_csv = true;
  return request;
}

uint64_t FoldFaultLedger(uint64_t fp) {
  for (const FaultSiteSnapshot& site :
       FaultRegistry::Instance().Snapshot()) {
    if (site.hits == 0) continue;
    fp = FingerprintPiece(fp, site.name);
    fp = FingerprintInt(fp, site.hits);
    fp = FingerprintInt(fp, site.fires);
  }
  return fp;
}

uint64_t SiteFires(const std::string& name) {
  for (const FaultSiteSnapshot& site :
       FaultRegistry::Instance().Snapshot()) {
    if (site.name == name) return site.fires;
  }
  return 0;
}

uint64_t FoldMetrics(uint64_t fp, const Metrics& metrics) {
  for (const CounterKey& key : kCounterKeys) {
    fp = FingerprintPiece(fp, key.name);
    fp = FingerprintInt(fp, metrics.Get(key.counter));
  }
  return fp;
}

namespace {

uint64_t FoldOutcome(uint64_t fp, const AnonymizeResponse& response) {
  fp = FingerprintInt(fp, response.id);
  fp = FingerprintInt(fp, response.ok() ? 1 : 0);
  fp = FingerprintPiece(fp, ServiceErrorName(response.error));
  fp = FingerprintInt(fp, response.cost);
  fp = FingerprintPiece(fp, response.stage);
  fp = FingerprintPiece(fp, response.chain);
  fp = FingerprintPiece(fp, StopReasonName(response.termination));
  fp = FingerprintInt(fp, response.cache_hit ? 1 : 0);
  fp = FingerprintInt(fp, static_cast<uint64_t>(response.brownout));
  fp = FingerprintPiece(fp, response.effective_algorithm);
  return fp;
}

}  // namespace

JobBatch SubmitJobs(JobQueue* queue, size_t jobs,
                    std::span<const char* const> algorithms, Rng* rng,
                    const Leg& leg) {
  JobBatch batch;
  uint64_t& fp = leg.report->digest;
  for (size_t i = 0; i < jobs; ++i) {
    AnonymizeRequest request = DrawRequest(rng, algorithms);
    ServiceError error = ServiceError::kNone;
    const Status prepared = ValidateAndPrepare(request, &error);
    if (!prepared.ok()) {
      leg.Violation(leg.invariant, "generated request failed validation: " +
                                       prepared.message());
      continue;
    }
    AnonymizeRequest kept = request;
    StatusOr<JobQueue::Ticket> ticket =
        queue->Submit(std::move(request), &error);
    ++leg.report->requests;
    if (!ticket.ok()) {
      ++leg.report->typed;
      if (error == ServiceError::kNone) {
        leg.Violation(leg.invariant,
                      "admission rejection without a taxonomy bucket: " +
                          ticket.status().message());
      }
      batch.rejections.push_back(error);
      fp = FingerprintPiece(fp, "rejected");
      fp = FingerprintPiece(fp, ServiceErrorName(error));
      continue;
    }
    fp = FingerprintInt(fp, ticket->id);
    batch.requests.push_back(std::move(kept));
    batch.tickets.push_back(*std::move(ticket));
  }
  return batch;
}

std::vector<AnonymizeResponse> CollectJobs(JobQueue* queue,
                                           ResultCache* cache,
                                           WorkerPoolOptions pool_options,
                                           JobBatch* batch, const Leg& leg) {
  pool_options.workers = 1;
  pool_options.retry =
      RetryPolicy{.max_attempts = 3, .base_ms = 0.01, .cap_ms = 0.1};
  // Breakers never half-open mid-schedule.
  pool_options.breaker =
      BreakerOptions{.failure_threshold = 3, .open_ms = 1e12};
  std::vector<AnonymizeResponse> responses;
  uint64_t& fp = leg.report->digest;
  WorkerPool pool(queue, cache, pool_options);
  queue->Close();
  for (size_t i = 0; i < batch->tickets.size(); ++i) {
    const AnonymizeRequest& request = batch->requests[i];
    AnonymizeResponse response = batch->tickets[i].result.get();
    const std::string job = "job " + std::to_string(response.id) + " (" +
                            request.algorithm + "): ";
    // Invariant 10 is invariant 1 for sharded jobs.
    const bool sharded = ParseAlgorithmName(request.algorithm)
                             .value()
                             .Has(AlgorithmWrapper::kSharded);
    const int number = leg.invariant == 1 && sharded ? 10 : leg.invariant;
    if (response.ok()) {
      ++leg.report->ok;
      if (response.error != ServiceError::kNone) {
        leg.Violation(number, job + "ok response carries error bucket " +
                                  ServiceErrorName(response.error));
      }
      const std::string wrong = AnswerViolation(
          *request.table, request.k, response.anonymized_csv, response.cost);
      if (!wrong.empty()) leg.Violation(number, job + wrong);
      if (response.cache_hit && response.termination != StopReason::kNone &&
          response.termination != StopReason::kBudget) {
        leg.Violation(2, job + "cache served a tainted result (termination=" +
                             StopReasonName(response.termination) + ")");
      }
      if (response.brownout > 0 && response.effective_algorithm.empty()) {
        leg.Violation(number, job + "brownout stamp without an effective "
                                    "backend");
      }
    } else {
      ++leg.report->typed;
      if (response.error == ServiceError::kNone) {
        leg.Violation(number, job + "failed without a taxonomy bucket: " +
                                  response.status.message());
      }
    }
    fp = FoldOutcome(fp, response);
    responses.push_back(std::move(response));
  }
  pool.Join();
  if (leg.report->requests != leg.report->ok + leg.report->typed) {
    leg.Violation(leg.invariant,
                  "ledger: submitted=" + std::to_string(leg.report->requests) +
                      " but ok+rejected+error=" +
                      std::to_string(leg.report->ok + leg.report->typed));
  }
  return responses;
}

}  // namespace chaos

ChaosReport RunChaosSchedule(const ChaosOptions& options) {
  ChaosReport report;
  report.seed = options.seed;
  for (ChaosLegReport* leg :
       {&report.service, &report.net, &report.overload}) {
    leg->digest = kFingerprintSeed;
  }
  // The service and overload legs pin solver parallelism to 1 so their
  // outcomes are a pure function of the seed; the net leg runs with the
  // process's own, as kanond does.
  const unsigned parallelism = GetParallelism();
  SetParallelism(1);
  chaos::RunServiceLeg(options, {&report.service, &report.violations, 1});
  SetParallelism(parallelism);
  chaos::RunNetLeg(options, {&report.net, &report.violations, 7});
  SetParallelism(1);
  chaos::RunOverloadLeg(options,
                        {&report.overload, &report.violations, 11});
  SetParallelism(parallelism);
  report.fingerprint = kFingerprintSeed;
  for (const ChaosLegReport* leg :
       {&report.service, &report.net, &report.overload}) {
    report.fingerprint = FingerprintInt(report.fingerprint, leg->digest);
  }
  return report;
}

}  // namespace kanon
