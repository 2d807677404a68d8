#include "algo/anonymizer.h"

#include "core/anonymity.h"
#include "core/cost.h"
#include "core/distance.h"
#include "util/logging.h"

namespace kanon {

Suppressor AnonymizationResult::MakeSuppressor(const Table& table) const {
  return SuppressorForPartition(table, partition);
}

AnonymizationResult Anonymizer::Run(const Table& table, size_t k) {
  RunContext unlimited;
  return Run(table, k, &unlimited);
}

void FinalizeResult(const Table& table, AnonymizationResult* result) {
  result->cost = PartitionCost(table, result->partition);
}

AnonymizationResult StoppedResult(const RunContext& ctx, double seconds,
                                  std::string notes) {
  AnonymizationResult result;
  result.termination = ctx.stop_reason();
  KANON_CHECK(result.termination != StopReason::kNone)
      << "StoppedResult on a context that did not stop";
  result.seconds = seconds;
  result.notes = std::move(notes);
  return result;
}

AnonymizationResult ValidateResult(const Table& table, size_t k,
                                   AnonymizationResult result) {
  KANON_CHECK(IsValidPartition(result.partition, table.num_rows(), k,
                               table.num_rows()))
      << "invalid partition: " << result.partition.ToString();
  KANON_CHECK_EQ(result.cost, PartitionCost(table, result.partition));
  const Suppressor t = result.MakeSuppressor(table);
  KANON_CHECK_EQ(t.Stars(), result.cost);
  KANON_CHECK(IsKAnonymizer(t, table, k));
  return result;
}

}  // namespace kanon
