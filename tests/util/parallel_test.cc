#include "util/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include "core/distance_oracle.h"
#include "data/generators/uniform.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/run_context.h"

namespace kanon {
namespace {

/// RAII guard restoring the global parallelism level.
class ParallelismGuard {
 public:
  explicit ParallelismGuard(unsigned workers)
      : previous_(GetParallelism()) {
    SetParallelism(workers);
  }
  ~ParallelismGuard() { SetParallelism(previous_); }

 private:
  unsigned previous_;
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ParallelismGuard guard(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelismGuard guard(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  ParallelismGuard guard(8);
  int calls = 0;
  ParallelFor(0, 3, 100, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SerialModeSingleChunk) {
  ParallelismGuard guard(1);
  int calls = 0;
  ParallelFor(0, 10000, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SumMatchesSerial) {
  ParallelismGuard guard(6);
  const size_t n = 4096;
  std::vector<long long> out(n);
  ParallelFor(0, n, 8, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      out[i] = static_cast<long long>(i) * 3 - 7;
    }
  });
  long long total = std::accumulate(out.begin(), out.end(), 0LL);
  long long expected = 0;
  for (size_t i = 0; i < n; ++i) {
    expected += static_cast<long long>(i) * 3 - 7;
  }
  EXPECT_EQ(total, expected);
}

TEST(ParallelForTest, EmptyRangeWithZeroMinChunkIsNoop) {
  ParallelismGuard guard(4);
  bool called = false;
  ParallelFor(0, 0, 0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ZeroMinChunkCoversRange) {
  // min_chunk = 0 is clamped to 1 rather than dividing by zero.
  ParallelismGuard guard(4);
  const size_t n = 257;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, InvertedRangeIsNoop) {
  ParallelismGuard guard(4);
  bool called = false;
  ParallelFor(10, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, PreCancelledContextSkipsAllWork) {
  ParallelismGuard guard(4);
  RunContext ctx;
  ctx.RequestCancel();
  std::atomic<int> calls{0};
  ParallelFor(0, 10000, 1,
              [&](size_t, size_t) { calls.fetch_add(1); }, &ctx);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

TEST(ParallelForTest, MidRunCancellationStopsRemainingChunks) {
  ParallelismGuard guard(1);  // deterministic serial sub-chunking
  RunContext ctx;
  std::atomic<size_t> visited{0};
  ParallelFor(
      0, 10000, 10,
      [&](size_t lo, size_t hi) {
        visited.fetch_add(hi - lo);
        ctx.RequestCancel();  // first sub-chunk pulls the plug
      },
      &ctx);
  // Only the sub-chunk in flight at cancellation time completed.
  EXPECT_LE(visited.load(), 10u);
  EXPECT_TRUE(ctx.ShouldStop());
}

TEST(ParallelForTest, NullContextMatchesHistoricalChunking) {
  // With no context the serial path must stay one contiguous call.
  ParallelismGuard guard(1);
  int calls = 0;
  ParallelFor(0, 10000, 1, [&](size_t, size_t) { ++calls; }, nullptr);
  EXPECT_EQ(calls, 1);
}

TEST(SetParallelismTest, RoundTrips) {
  ParallelismGuard guard(3);
  EXPECT_EQ(GetParallelism(), 3u);
}

TEST(SetParallelismTest, ZeroWorkersClampsToOne) {
  ParallelismGuard guard(0);
  EXPECT_EQ(GetParallelism(), 1u);
  // And the clamped configuration still executes work correctly.
  int calls = 0;
  ParallelFor(0, 100, 1, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelDistanceMatrixTest, IdenticalToSerial) {
  Rng rng(1);
  const Table t = UniformTable(
      {.num_rows = 200, .num_columns = 10, .alphabet = 4}, &rng);
  std::vector<ColId> serial, parallel;
  {
    ParallelismGuard guard(1);
    const auto dm = *DistanceOracle::Create(t, {}, nullptr);
    for (RowId a = 0; a < t.num_rows(); ++a) {
      for (RowId b = 0; b < t.num_rows(); ++b) {
        serial.push_back(dm->at(a, b));
      }
    }
  }
  {
    ParallelismGuard guard(8);
    const auto dm = *DistanceOracle::Create(t, {}, nullptr);
    for (RowId a = 0; a < t.num_rows(); ++a) {
      for (RowId b = 0; b < t.num_rows(); ++b) {
        parallel.push_back(dm->at(a, b));
      }
    }
  }
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace kanon
