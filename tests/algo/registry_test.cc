#include "algo/registry.h"

#include "algo/sharded_anonymizer.h"
#include "coreset/coreset_anonymizer.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/metrics.h"
#include "util/random.h"

namespace kanon {
namespace {

/// Names and the verdict the registry gave each one before the grammar
/// moved into a single parse. Every accepted name builds an algorithm
/// that reports the same name back.
struct NameVerdict {
  const char* name;
  bool accepted;
};

constexpr NameVerdict kNameVerdicts[] = {
    {"sharded_coreset_mdav", true},
    {"coreset_sharded_mdav", true},
    {"coreset_sharded_coreset_mdav", true},
    {"sharded_coreset_sharded_mdav", true},
    {"coreset_sharded_coreset_sharded_cluster_greedy", true},
    {"sharded_mdav+local_search", true},
    {"ball_cover+local_search+local_search", true},
    {"coreset_ball_cover", true},
    {"coreset_mdav+local_search", true},
    {"sharded_coreset_ball_cover+annealing", true},
    {"mdav+annealing+local_search", true},
    {"mdav+local_search+annealing", true},
    {"mondrian+annealing+annealing", true},
    {"greedy_cover+local_search", true},
    {"resilient+local_search", true},
    {"sharded_resilient+local_search", true},
    {"coreset_resilient+annealing", true},
    {"sharded_suppress_all", true},
    {"sharded_exact_dp", true},
    {"coreset_branch_bound", true},
    {"coreset_attribute_greedy", true},
    {"sharded_attribute_exact", true},
    {"mdav", true},
    {"resilient", true},
    {"sharded_resilient", false},
    {"coreset_resilient", false},
    {"coreset_sharded_resilient", false},
    {"sharded_coreset_resilient", false},
    {"coreset_coreset_mdav", false},
    {"sharded_sharded_mdav", false},
    {"coreset_sharded_sharded_mdav", false},
    {"+local_search", false},
    {"+annealing", false},
    {"sharded_", false},
    {"coreset_", false},
    {"sharded_sharded_", false},
    {"coreset_coreset_", false},
    {"coreset_sharded_", false},
    {"sharded_coreset_", false},
    {"sharded_+local_search", false},
    {"coreset_+annealing", false},
    {"coreset_+local_search+local_search", false},
    {"nope+annealing", false},
    {"mdav+", false},
    {"mdav+nope", false},
    {"sharded_mdav+", false},
    {"coreset_mdav_", false},
    {"Mdav", false},
    {" mdav", false},
    {"mdav ", false},
    {"", false},
};

TEST(RegistryTest, NameTableVerdictsHold) {
  for (const NameVerdict& entry : kNameVerdicts) {
    const std::string name = entry.name;
    const std::optional<AlgorithmName> parsed = ParseAlgorithmName(name);
    const std::unique_ptr<Anonymizer> algo = MakeAnonymizer(name);
    // The parse accepts a name iff the factory builds it.
    EXPECT_EQ(parsed.has_value(), entry.accepted) << name;
    EXPECT_EQ(algo != nullptr, entry.accepted) << name;
    EXPECT_EQ(MakeAnonymizerOr(name).ok(), entry.accepted) << name;
    if (parsed.has_value()) {
      EXPECT_EQ(parsed->ToString(), name);
    }
    if (algo != nullptr) {
      EXPECT_EQ(algo->name(), name);
    }
  }
}

TEST(RegistryTest, ParseSplitsWrappersBaseAndSuffixes) {
  const std::optional<AlgorithmName> parsed =
      ParseAlgorithmName("coreset_sharded_mdav+annealing+local_search");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->wrappers,
            (std::vector<AlgorithmWrapper>{AlgorithmWrapper::kCoreset,
                                           AlgorithmWrapper::kSharded}));
  EXPECT_EQ(parsed->base, "mdav");
  EXPECT_EQ(parsed->suffixes,
            (std::vector<PostOptimizer>{PostOptimizer::kAnnealing,
                                        PostOptimizer::kLocalSearch}));
  EXPECT_TRUE(parsed->Has(AlgorithmWrapper::kSharded));
  EXPECT_FALSE(ParseAlgorithmName("mdav")->Has(AlgorithmWrapper::kCoreset));
}

TEST(RegistryTest, KnobsReachEveryNestedWrapperLevel) {
  Rng rng(3);
  const Table t = UniformTable(
      {.num_rows = 600, .num_columns = 5, .alphabet = 5}, &rng);
  AlgorithmKnobs knobs;
  knobs.coreset.sample_rate = 0.5;
  knobs.shard.shards = 2;
  const auto coreset_mdav = [&knobs] {
    return std::make_unique<CoresetAnonymizer>(MakeAnonymizer("mdav"),
                                               knobs.coreset);
  };
  // The same composition built by hand, with the knobs on every level.
  const auto by_hand = std::make_unique<CoresetAnonymizer>(
      std::make_unique<ShardedAnonymizer>(coreset_mdav, knobs.shard),
      knobs.coreset);
  const auto run = [&t](Anonymizer& algo, Metrics* metrics) {
    RunContext ctx;
    ctx.set_metrics(metrics);
    return algo.Run(t, 3, &ctx);
  };
  Metrics want_metrics;
  const AnonymizationResult want = run(*by_hand, &want_metrics);
  Metrics got_metrics;
  const auto algo = MakeAnonymizer("coreset_sharded_coreset_mdav", knobs);
  ASSERT_NE(algo, nullptr);
  const AnonymizationResult got = run(*algo, &got_metrics);
  ValidateResult(t, 3, got);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.partition.groups, want.partition.groups);
  EXPECT_EQ(got_metrics.Get(Counter::kShardsPlanned), 2u);
  EXPECT_EQ(got_metrics.Get(Counter::kCoresetRowsSampled),
            want_metrics.Get(Counter::kCoresetRowsSampled));
  // Default knobs sample and cut differently.
  Metrics default_metrics;
  const auto defaults = MakeAnonymizer("coreset_sharded_coreset_mdav");
  (void)run(*defaults, &default_metrics);
  EXPECT_NE(default_metrics.Get(Counter::kShardsPlanned), 2u);
  EXPECT_NE(default_metrics.Get(Counter::kCoresetRowsSampled),
            want_metrics.Get(Counter::kCoresetRowsSampled));
}

TEST(RegistryTest, AllKnownNamesResolve) {
  for (const std::string& name : KnownAnonymizers()) {
    const auto algo = MakeAnonymizer(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name(), name);
  }
}

TEST(RegistryTest, UnknownNameIsNull) {
  EXPECT_EQ(MakeAnonymizer("definitely_not_an_algorithm"), nullptr);
  EXPECT_EQ(MakeAnonymizer(""), nullptr);
}

TEST(RegistryTest, MakeAnonymizerOrResolvesKnownNames) {
  for (const std::string& name : KnownAnonymizers()) {
    const StatusOr<std::unique_ptr<Anonymizer>> algo =
        MakeAnonymizerOr(name);
    ASSERT_TRUE(algo.ok()) << name;
    EXPECT_EQ((*algo)->name(), name);
  }
}

TEST(RegistryTest, MakeAnonymizerOrDiagnosesUnknownNames) {
  const StatusOr<std::unique_ptr<Anonymizer>> algo =
      MakeAnonymizerOr("definitely_not_an_algorithm");
  ASSERT_FALSE(algo.ok());
  EXPECT_EQ(algo.status().code(), StatusCode::kNotFound);
  // The message carries the full menu: every registry name plus the
  // composition suffixes, so a CLI can print it verbatim.
  for (const std::string& name : KnownAnonymizers()) {
    EXPECT_NE(algo.status().message().find(name), std::string::npos)
        << name;
  }
  EXPECT_NE(algo.status().message().find("+local_search"),
            std::string::npos);
  EXPECT_NE(algo.status().message().find("definitely_not_an_algorithm"),
            std::string::npos);
}

TEST(RegistryTest, LocalSearchComposition) {
  const auto algo = MakeAnonymizer("mondrian+local_search");
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->name(), "mondrian+local_search");
}

TEST(RegistryTest, LocalSearchOnUnknownBaseIsNull) {
  EXPECT_EQ(MakeAnonymizer("nope+local_search"), nullptr);
}

TEST(RegistryTest, BareLocalSearchSuffixIsNull) {
  EXPECT_EQ(MakeAnonymizer("+local_search"), nullptr);
}

TEST(RegistryTest, EveryRegistryAlgorithmRunsOnSmallInstance) {
  Rng rng(1);
  const Table t = UniformTable(
      {.num_rows = 8, .num_columns = 4, .alphabet = 3}, &rng);
  for (const std::string& name : KnownAnonymizers()) {
    auto algo = MakeAnonymizer(name);
    ASSERT_NE(algo, nullptr);
    ValidateResult(t, 2, algo->Run(t, 2));
  }
}

TEST(RegistryTest, DoubleLocalSearchComposes) {
  const auto algo = MakeAnonymizer("ball_cover+local_search+local_search");
  ASSERT_NE(algo, nullptr);
  EXPECT_EQ(algo->name(), "ball_cover+local_search+local_search");
}

}  // namespace
}  // namespace kanon
