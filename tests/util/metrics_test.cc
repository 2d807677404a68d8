#include "util/metrics.h"

#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/run_context.h"

namespace kanon {
namespace {

TEST(MetricsRegistryTest, NamesAreUniqueNonEmptyAndCoverEveryCounter) {
  std::set<std::string_view> names;
  std::set<Counter> listed;
  for (const CounterKey& key : kCounterKeys) {
    EXPECT_FALSE(key.name.empty());
    EXPECT_TRUE(names.insert(key.name).second) << key.name;
    listed.insert(key.counter);
  }
  EXPECT_EQ(listed.size(), kNumCounters);
}

TEST(MetricsRegistryTest, ConcurrentAddsSumExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kAdds = 10000;
  Metrics metrics;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        metrics.Add(Counter::kCompleted);
        metrics.Add(Counter::kShardsPlanned, 3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot[Counter::kCompleted], kThreads * kAdds);
  EXPECT_EQ(snapshot[Counter::kShardsPlanned], 3 * kThreads * kAdds);
  EXPECT_EQ(snapshot[Counter::kAccepted], 0u);
}

TEST(MetricsRegistryTest, ChildContextsCountIntoTheAttachedRegistry) {
  Metrics metrics;
  RunContext root;
  root.Count(Counter::kShardPlans);  // nothing attached yet: dropped
  root.set_metrics(&metrics);
  RunContext child(&root);
  RunContext grandchild(&child);
  root.Count(Counter::kShardPlans);
  grandchild.Count(Counter::kShardSolves, 4);
  EXPECT_EQ(metrics.Get(Counter::kShardPlans), 1u);
  EXPECT_EQ(metrics.Get(Counter::kShardSolves), 4u);
}

}  // namespace
}  // namespace kanon
