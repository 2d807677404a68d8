#include "algo/registry.h"

#include <algorithm>

#include "algo/annealing.h"
#include "algo/attribute_adapter.h"
#include "algo/attribute_exact.h"
#include "algo/attribute_greedy.h"
#include "algo/ball_cover.h"
#include "algo/branch_bound.h"
#include "algo/cluster_greedy.h"
#include "algo/exact_dp.h"
#include "algo/fallback.h"
#include "algo/greedy_cover.h"
#include "algo/local_search.h"
#include "algo/mdav.h"
#include "algo/mondrian.h"
#include "algo/random_partition.h"
#include "algo/sharded_anonymizer.h"
#include "algo/suppress_all.h"
#include "coreset/coreset_anonymizer.h"

namespace kanon {

namespace {

// Spellings, indexed by AlgorithmWrapper and by PostOptimizer.
constexpr std::string_view kPrefixes[] = {"coreset_", "sharded_"};
constexpr std::string_view kSuffixes[] = {"+local_search", "+annealing"};

template <typename Solver>
std::unique_ptr<Anonymizer> MakeDefault() {
  return std::make_unique<Solver>();
}

std::unique_ptr<Anonymizer> MakeBallCover(BallFamilyMode family_mode) {
  BallCoverOptions options;
  options.family_mode = family_mode;
  return std::make_unique<BallCoverAnonymizer>(options);
}

template <typename AttributeSolver>
std::unique_ptr<Anonymizer> MakeAttributeAdapter() {
  return std::make_unique<AttributeAdapterAnonymizer>(
      std::make_unique<AttributeSolver>());
}

/// A solver a name can have at its base, built with its defaults.
struct BaseSolver {
  std::string_view name;
  std::unique_ptr<Anonymizer> (*make)();
};

const BaseSolver kBaseSolvers[] = {
    {"greedy_cover", &MakeDefault<GreedyCoverAnonymizer>},
    {"ball_cover", &MakeDefault<BallCoverAnonymizer>},
    {"ball_cover_radius",
     [] { return MakeBallCover(BallFamilyMode::kRadius); }},
    {"ball_cover_pairwise",
     [] { return MakeBallCover(BallFamilyMode::kPairwise); }},
    {"exact_dp", &MakeDefault<ExactDpAnonymizer>},
    {"branch_bound", &MakeDefault<BranchBoundAnonymizer>},
    {"mondrian", &MakeDefault<MondrianAnonymizer>},
    {"cluster_greedy", &MakeDefault<ClusterGreedyAnonymizer>},
    {"mdav", &MakeDefault<MdavAnonymizer>},
    {"random_partition", &MakeDefault<RandomPartitionAnonymizer>},
    {"suppress_all", &MakeDefault<SuppressAllAnonymizer>},
    {"resilient", &MakeDefault<FallbackAnonymizer>},
    {"attribute_greedy", &MakeAttributeAdapter<GreedyAttributeAnonymizer>},
    {"attribute_exact", &MakeAttributeAdapter<ExactAttributeAnonymizer>},
};

const BaseSolver* FindBase(std::string_view name) {
  const auto* base = std::ranges::find(kBaseSolvers, name, &BaseSolver::name);
  return base == std::end(kBaseSolvers) ? nullptr : base;
}

/// Builds `name` from wrapper level `level` inward. A sharded level's
/// factory rebuilds the levels below it for every shard.
std::unique_ptr<Anonymizer> Build(const AlgorithmName& name, size_t level,
                                  const AlgorithmKnobs& knobs) {
  if (level == name.wrappers.size()) {
    std::unique_ptr<Anonymizer> algo = FindBase(name.base)->make();
    for (const PostOptimizer post : name.suffixes) {
      if (post == PostOptimizer::kLocalSearch) {
        algo = std::make_unique<LocalSearchAnonymizer>(std::move(algo));
      } else {
        algo = std::make_unique<AnnealingAnonymizer>(std::move(algo));
      }
    }
    return algo;
  }
  if (name.wrappers[level] == AlgorithmWrapper::kSharded) {
    return std::make_unique<ShardedAnonymizer>(
        [name, level, knobs] { return Build(name, level + 1, knobs); },
        knobs.shard);
  }
  return std::make_unique<CoresetAnonymizer>(Build(name, level + 1, knobs),
                                             knobs.coreset);
}

}  // namespace

bool AlgorithmName::Has(AlgorithmWrapper wrapper) const {
  return std::ranges::find(wrappers, wrapper) != wrappers.end();
}

std::string AlgorithmName::ToString() const {
  std::string out;
  for (const AlgorithmWrapper wrapper : wrappers) {
    out += kPrefixes[static_cast<size_t>(wrapper)];
  }
  out += base;
  for (const PostOptimizer post : suffixes) {
    out += kSuffixes[static_cast<size_t>(post)];
  }
  return out;
}

std::optional<AlgorithmName> ParseAlgorithmName(std::string_view name) {
  AlgorithmName parsed;
  // Wrappers, outermost first. A prefix only counts when something
  // follows it, and a wrapper never directly wraps its own kind.
  for (;;) {
    const auto* prefix =
        std::ranges::find_if(kPrefixes, [name](std::string_view p) {
          return name.size() > p.size() && name.starts_with(p);
        });
    if (prefix == std::end(kPrefixes)) break;
    const auto wrapper = static_cast<AlgorithmWrapper>(prefix - kPrefixes);
    if (!parsed.wrappers.empty() && parsed.wrappers.back() == wrapper) {
      return std::nullopt;
    }
    parsed.wrappers.push_back(wrapper);
    name.remove_prefix(prefix->size());
  }
  const size_t plus = std::min(name.find('+'), name.size());
  parsed.base = std::string(name.substr(0, plus));
  if (FindBase(parsed.base) == nullptr) return std::nullopt;
  for (name.remove_prefix(plus); !name.empty();) {
    const auto* suffix = std::ranges::find_if(
        kSuffixes, [name](std::string_view s) { return name.starts_with(s); });
    if (suffix == std::end(kSuffixes)) return std::nullopt;
    parsed.suffixes.push_back(static_cast<PostOptimizer>(suffix - kSuffixes));
    name.remove_prefix(suffix->size());
  }
  // A wrapper never directly wraps the bare resilient chain.
  if (!parsed.wrappers.empty() && parsed.suffixes.empty() &&
      parsed.base == "resilient") {
    return std::nullopt;
  }
  return parsed;
}

StatusOr<AlgorithmName> ParseAlgorithmNameOr(std::string_view name) {
  std::optional<AlgorithmName> parsed = ParseAlgorithmName(name);
  if (parsed.has_value()) return *std::move(parsed);
  std::string message = "unknown algorithm '" + std::string(name) +
                        "'; known:";
  for (const std::string& known : KnownAnonymizers()) message += " " + known;
  message +=
      " (composition suffixes: +local_search, +annealing;"
      " prefixes: coreset_<inner>, sharded_<inner>)";
  return Status::NotFound(std::move(message));
}

std::vector<std::string> KnownAnonymizers() {
  return {
      "greedy_cover",     "ball_cover",    "ball_cover_radius",
      "ball_cover_pairwise", "exact_dp",   "branch_bound",
      "mondrian",         "cluster_greedy", "mdav",
      "random_partition",
      "coreset_mdav",     "coreset_cluster_greedy", "coreset_ball_cover",
      "sharded_mdav",     "sharded_cluster_greedy",
      "suppress_all",     "attribute_greedy", "attribute_exact",
      "resilient",
  };
}

std::unique_ptr<Anonymizer> MakeAnonymizer(const std::string& name,
                                           const AlgorithmKnobs& knobs) {
  const std::optional<AlgorithmName> parsed = ParseAlgorithmName(name);
  if (!parsed.has_value()) return nullptr;
  return Build(*parsed, 0, knobs);
}

StatusOr<std::unique_ptr<Anonymizer>> MakeAnonymizerOr(
    const std::string& name) {
  const StatusOr<AlgorithmName> parsed = ParseAlgorithmNameOr(name);
  if (!parsed.ok()) return parsed.status();
  return Build(*parsed, 0, {});
}

}  // namespace kanon
