#include "coreset/coreset_anonymizer.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algo/fallback.h"
#include "algo/registry.h"
#include "core/partition.h"
#include "data/generators/synthetic.h"
#include "fault/fault.h"
#include "gtest/gtest.h"
#include "util/fingerprint.h"
#include "util/run_context.h"

/// \file
/// Wrapper contract: coreset_<inner> always emits a valid k-anonymous
/// partition of the FULL table (or a typed decline — never an invalid
/// partition), is deterministic from the sampler seed, resumes from a
/// wrapper snapshot with the bit-identical answer, survives hostile
/// snapshots, and degrades gracefully inside the fallback chain when a
/// fault fires mid-pipeline.

namespace kanon {
namespace {

/// Canonical content hash (group/row order is presentation).
uint64_t PartitionHash(const Partition& partition) {
  std::vector<Group> groups = partition.groups;
  for (Group& group : groups) std::sort(group.begin(), group.end());
  std::sort(groups.begin(), groups.end());
  uint64_t fp = kFingerprintSeed;
  for (const Group& group : groups) {
    fp = FingerprintInt(fp, group.size());
    for (const RowId row : group) fp = FingerprintInt(fp, row);
  }
  return fp;
}

/// Latest-snapshot-wins in-memory sink.
class MemorySink : public CheckpointSink {
 public:
  Status Persist(std::string_view solver,
                 const std::string& payload) override {
    solver_ = std::string(solver);
    payload_ = payload;
    ++persists_;
    return Status::Ok();
  }

  const std::string& solver() const { return solver_; }
  const std::string& payload() const { return payload_; }
  uint64_t persists() const { return persists_; }

 private:
  std::string solver_;
  std::string payload_;
  uint64_t persists_ = 0;
};

Table TestTable(uint64_t rows, uint64_t seed = 11) {
  SyntheticTableOptions options;
  options.num_rows = rows;
  options.num_columns = 4;
  options.seed = seed;
  return SyntheticTable(options);
}

CoresetAnonymizer MakeWrapper(const std::string& inner = "mdav",
                              CoresetOptions options = {}) {
  return CoresetAnonymizer(MakeAnonymizer(inner), options);
}

TEST(CoresetAnonymizerTest, ProducesValidFullTablePartition) {
  const Table table = TestTable(400);
  CoresetAnonymizer algo = MakeWrapper();
  RunContext ctx;
  const AnonymizationResult result = algo.Run(table, 4, &ctx);
  EXPECT_TRUE(result.completed());
  EXPECT_TRUE(IsValidPartition(result.partition, 400, 4, 400));
  EXPECT_NE(result.notes.find("coreset s="), std::string::npos);
  EXPECT_NE(result.notes.find("inner=mdav"), std::string::npos);
}

TEST(CoresetAnonymizerTest, DeterministicFromSamplerSeed) {
  const Table table = TestTable(350);
  CoresetOptions options;
  options.seed = 1234;
  CoresetAnonymizer a = MakeWrapper("mdav", options);
  CoresetAnonymizer b = MakeWrapper("mdav", options);
  RunContext ctx_a, ctx_b;
  const AnonymizationResult ra = a.Run(table, 3, &ctx_a);
  const AnonymizationResult rb = b.Run(table, 3, &ctx_b);
  ASSERT_TRUE(ra.completed() && rb.completed());
  EXPECT_EQ(ra.cost, rb.cost);
  EXPECT_EQ(PartitionHash(ra.partition), PartitionHash(rb.partition));
}

TEST(CoresetAnonymizerTest, SmallTablesTakeTheDirectPath) {
  const Table table = TestTable(24);
  CoresetAnonymizer algo = MakeWrapper();
  RunContext ctx;
  // n = 24 is below the min_sample floor: the wrapper must run the
  // inner solver directly and say so.
  const AnonymizationResult result = algo.Run(table, 3, &ctx);
  ASSERT_TRUE(result.completed());
  EXPECT_NE(result.notes.find("coreset=direct"), std::string::npos);
  EXPECT_TRUE(IsValidPartition(result.partition, 24, 3, 24));

  std::unique_ptr<Anonymizer> inner = MakeAnonymizer("mdav");
  const AnonymizationResult direct = inner->Run(table, 3);
  EXPECT_EQ(result.cost, direct.cost);
  EXPECT_EQ(PartitionHash(result.partition),
            PartitionHash(direct.partition));
}

TEST(CoresetAnonymizerTest, RegistryBuildsCoresetCompositions) {
  for (const std::string name :
       {"coreset_mdav", "coreset_cluster_greedy", "coreset_ball_cover"}) {
    std::unique_ptr<Anonymizer> algo = MakeAnonymizer(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name(), name);
    const auto known = KnownAnonymizers();
    EXPECT_NE(std::find(known.begin(), known.end(), name), known.end());
  }
  // Nesting the chain or another wrapper inside coreset is rejected.
  EXPECT_EQ(MakeAnonymizer("coreset_resilient"), nullptr);
  EXPECT_EQ(MakeAnonymizer("coreset_coreset_mdav"), nullptr);
  EXPECT_EQ(MakeAnonymizer("coreset_nope"), nullptr);
}

TEST(CoresetAnonymizerTest, EndToEndThroughRegistryNames) {
  const Table table = TestTable(300, 21);
  for (const std::string name :
       {"coreset_mdav", "coreset_cluster_greedy", "coreset_ball_cover"}) {
    std::unique_ptr<Anonymizer> algo = MakeAnonymizer(name);
    ASSERT_NE(algo, nullptr);
    RunContext ctx;
    const AnonymizationResult result = algo->Run(table, 4, &ctx);
    EXPECT_TRUE(result.completed()) << name;
    EXPECT_TRUE(IsValidPartition(result.partition, 300, 4, 300)) << name;
  }
}

TEST(CoresetAnonymizerTest, BallCoverInnerIsDeterministicAndDistinct) {
  // The third registered inner wrapper: same contract as the others —
  // deterministic from the sampler seed, valid on the full table, and a
  // genuinely different inner (notes name it).
  const Table table = TestTable(300, 9);
  std::unique_ptr<Anonymizer> a = MakeAnonymizer("coreset_ball_cover");
  std::unique_ptr<Anonymizer> b = MakeAnonymizer("coreset_ball_cover");
  ASSERT_NE(a, nullptr);
  RunContext ctx_a, ctx_b;
  const AnonymizationResult ra = a->Run(table, 3, &ctx_a);
  const AnonymizationResult rb = b->Run(table, 3, &ctx_b);
  ASSERT_TRUE(ra.completed() && rb.completed());
  EXPECT_TRUE(IsValidPartition(ra.partition, 300, 3, 300));
  EXPECT_EQ(ra.cost, rb.cost);
  EXPECT_EQ(PartitionHash(ra.partition), PartitionHash(rb.partition));
  EXPECT_NE(ra.notes.find("inner=ball_cover"), std::string::npos);
}

TEST(CoresetAnonymizerTest, ResumesFromWrapperSnapshotBitIdentical) {
  const Table table = TestTable(400, 33);
  CoresetOptions options;
  options.seed = 77;

  // Golden uninterrupted run with the snapshot cadence armed: the last
  // persisted wrapper snapshot is phase 2 (sample + solved partition).
  MemorySink sink;
  CoresetAnonymizer golden_algo = MakeWrapper("mdav", options);
  RunContext golden_ctx;
  golden_ctx.ArmCheckpoints(&sink, /*every_polls=*/1, 0.0);
  const AnonymizationResult golden = golden_algo.Run(table, 4, &golden_ctx);
  ASSERT_TRUE(golden.completed());
  ASSERT_GE(sink.persists(), 1u);
  EXPECT_EQ(sink.solver(), "coreset_mdav");

  // A fresh incarnation resuming from that snapshot must skip the
  // completed phases and land on the bit-identical answer.
  CoresetAnonymizer resumed_algo = MakeWrapper("mdav", options);
  RunContext resumed_ctx;
  resumed_ctx.SetResume("coreset_mdav", sink.payload());
  const AnonymizationResult resumed = resumed_algo.Run(table, 4, &resumed_ctx);
  ASSERT_TRUE(resumed.completed());
  EXPECT_EQ(resumed.cost, golden.cost);
  EXPECT_EQ(PartitionHash(resumed.partition), PartitionHash(golden.partition));
  EXPECT_NE(resumed.notes.find("resumed=1"), std::string::npos);
}

TEST(CoresetAnonymizerTest, HostileSnapshotColdStartsInsteadOfTrusting) {
  const Table table = TestTable(400, 33);
  CoresetOptions options;
  options.seed = 77;
  CoresetAnonymizer golden_algo = MakeWrapper("mdav", options);
  RunContext golden_ctx;
  const AnonymizationResult golden = golden_algo.Run(table, 4, &golden_ctx);
  ASSERT_TRUE(golden.completed());

  for (const std::string& payload :
       {std::string(), std::string("garbage"),
        std::string(200, '\xff')}) {
    CoresetAnonymizer algo = MakeWrapper("mdav", options);
    RunContext ctx;
    ctx.SetResume("coreset_mdav", payload);
    const AnonymizationResult result = algo.Run(table, 4, &ctx);
    ASSERT_TRUE(result.completed());
    EXPECT_EQ(result.cost, golden.cost);
    EXPECT_EQ(PartitionHash(result.partition),
              PartitionHash(golden.partition));
    EXPECT_EQ(result.notes.find("resumed=1"), std::string::npos);
  }
}

TEST(CoresetAnonymizerTest, SamplerFaultDeclinesTypedNeverInvalid) {
  const Table table = TestTable(300);
  FaultPlan plan;
  plan.seed = 5;
  plan.sites.push_back({.site = "coreset.sample", .first_n = 1});
  ScopedFaultInjection injection(plan);
  CoresetAnonymizer algo = MakeWrapper();
  RunContext ctx;
  const AnonymizationResult result = algo.Run(table, 3, &ctx);
  EXPECT_FALSE(result.completed());
  EXPECT_EQ(result.termination, StopReason::kBudget);
  EXPECT_TRUE(result.partition.groups.empty());
  EXPECT_NE(result.notes.find("declined:"), std::string::npos);
}

TEST(CoresetAnonymizerTest, FallbackChainDegradesPastFaultedCoreset) {
  const Table table = TestTable(300);
  FaultPlan plan;
  plan.seed = 5;
  plan.sites.push_back({.site = "coreset.sample", .first_n = 1});
  ScopedFaultInjection injection(plan);

  FallbackOptions options;
  options.stages = {"coreset_mdav", "suppress_all"};
  FallbackAnonymizer chain(options);
  RunContext ctx;
  const AnonymizationResult result = chain.Run(table, 3, &ctx);
  // The chain must absorb the coreset decline and produce a valid
  // answer from the terminal stage.
  EXPECT_TRUE(IsValidPartition(result.partition, 300, 3, 300));
  EXPECT_EQ(result.stage, "suppress_all");
  EXPECT_NE(result.notes.find("coreset_mdav"), std::string::npos);
}

}  // namespace
}  // namespace kanon
