#ifndef KANON_ALGO_REGISTRY_H_
#define KANON_ALGO_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algo/anonymizer.h"
#include "algo/shard_plan.h"
#include "coreset/sampler.h"
#include "util/status.h"

/// \file
/// Name -> algorithm factory for the CLIs, the experiment harness and
/// the service. This is the only code that reads an algorithm name:
/// everything else asks ParseAlgorithmName instead of matching prefixes.
///
/// **Grammar:** `name := wrapper* base suffix*`, where a wrapper is
/// `coreset_` or `sharded_`, a suffix is `+local_search` or
/// `+annealing`, and `base` is a plain solver ("mdav", "resilient", ...).
/// Wrappers read outermost first: `coreset_sharded_mdav` samples, shards
/// the sample, then runs mdav on each shard. Suffixes post-optimize the
/// base in the order written and sit inside every wrapper
/// (`sharded_mdav+local_search` shards local-searched mdav). A wrapper
/// never directly wraps its own kind (`coreset_coreset_mdav` is unknown;
/// `coreset_sharded_coreset_mdav` is not) or the bare `resilient` chain
/// (`sharded_resilient` is unknown; `sharded_resilient+local_search` is
/// not).

namespace kanon {

/// The wrapper kinds a name can stack around its base.
enum class AlgorithmWrapper { kCoreset, kSharded };

/// The post-optimizers a name can append to its base.
enum class PostOptimizer { kLocalSearch, kAnnealing };

/// One parsed algorithm name: wrapper levels outermost first, the base
/// solver, and the post-optimizers in the order they apply.
struct AlgorithmName {
  std::vector<AlgorithmWrapper> wrappers;
  std::string base;
  std::vector<PostOptimizer> suffixes;

  /// True when some wrapper level is `wrapper`.
  bool Has(AlgorithmWrapper wrapper) const;
  /// The name this parse spells (ParseAlgorithmName's inverse).
  std::string ToString() const;
};

/// Parses `name` against the grammar above; nullopt when it is not a
/// name MakeAnonymizer accepts (the two agree on every string).
std::optional<AlgorithmName> ParseAlgorithmName(std::string_view name);

/// Diagnosing variant for input boundaries (CLIs, the service layer):
/// unknown names come back as kNotFound with a message that lists every
/// registered name and the composition suffixes and prefixes, so the
/// caller can print it verbatim instead of reconstructing the list.
StatusOr<AlgorithmName> ParseAlgorithmNameOr(std::string_view name);

/// The options a name's wrappers run with: MakeAnonymizer hands
/// `coreset` to every coreset_ level and `shard` to every sharded_
/// level it builds, including the fresh inner instance of each shard.
/// Levels the name does not contain ignore their set.
struct AlgorithmKnobs {
  CoresetOptions coreset;
  ShardOptions shard;
};

/// Known algorithm names, in presentation order.
std::vector<std::string> KnownAnonymizers();

/// Instantiates the algorithm `name` (see the grammar above) with
/// `knobs` on its wrapper levels; returns nullptr for unknown names.
std::unique_ptr<Anonymizer> MakeAnonymizer(const std::string& name,
                                           const AlgorithmKnobs& knobs = {});

/// Diagnosing variant of MakeAnonymizer (default knobs); unknown names
/// fail as ParseAlgorithmNameOr does.
StatusOr<std::unique_ptr<Anonymizer>> MakeAnonymizerOr(
    const std::string& name);

}  // namespace kanon

#endif  // KANON_ALGO_REGISTRY_H_
