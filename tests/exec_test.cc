// Tests for idxsel::exec — the spawn-per-call parallel loop, sharded map,
// and the shared deadline poller that make the parallel pipeline safe.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/hash.h"
#include "common/telemetry.h"
#include "exec/parallel_for.h"
#include "exec/shared_deadline.h"
#include "exec/sharded_map.h"

namespace idxsel::exec {
namespace {

int64_t FanOuts() {
  return telemetry::Value(telemetry::Slot::kExecParallelFors);
}

TEST(ParallelForTest, ResolveThreadsContract) {
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_LE(ResolveThreads(0), kMaxThreads);
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(4), 4u);
  EXPECT_EQ(ResolveThreads(100000), kMaxThreads);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(4, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroAndOneIterationsRunInline) {
  const int64_t before = FanOuts();
  int calls = 0;
  ParallelFor(4, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  ParallelFor(4, 1, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, caller);
  EXPECT_EQ(FanOuts(), before) << "a loop that starts no thread is no fan-out";
}

TEST(ParallelForTest, OneThreadRunsOnTheCallerInOrder) {
  const int64_t before = FanOuts();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool all_on_caller = true;
  ParallelFor(1, 100, [&](size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(FanOuts(), before);
}

TEST(ParallelForTest, NestedCallCompletes) {
  // Every call starts and joins its own threads, so a ParallelFor issued
  // from inside a body cannot wait on lanes the outer loop holds.
  std::atomic<int> total{0};
  ParallelFor(2, 8, [&](size_t) {
    ParallelFor(2, 8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForTest, FansOutOverSeveralThreadsAndCountsIt) {
  const int64_t before = FanOuts();
  std::mutex mu;
  std::set<std::thread::id> lanes;
  ParallelFor(4, 256, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard<std::mutex> lock(mu);
    lanes.insert(std::this_thread::get_id());
  });
  EXPECT_GE(lanes.size(), 2u);
  EXPECT_LE(lanes.size(), 4u);
  EXPECT_EQ(FanOuts(), before + 1);
}

struct IdentityHash {
  size_t operator()(uint64_t v) const { return v; }
};

TEST(ShardedMapTest, GetOrComputeComputesOncePerKey) {
  ShardedMap<uint64_t, int, IdentityHash> map;
  std::atomic<int> computes{0};
  auto [v1, hit1] = map.GetOrCompute(7, [&] {
    computes.fetch_add(1);
    return 70;
  });
  EXPECT_EQ(v1, 70);
  EXPECT_FALSE(hit1);
  auto [v2, hit2] = map.GetOrCompute(7, [&] {
    computes.fetch_add(1);
    return 71;  // must never run
  });
  EXPECT_EQ(v2, 70);
  EXPECT_TRUE(hit2);
  EXPECT_EQ(computes.load(), 1);
}

TEST(ShardedMapTest, ConcurrentGetOrComputeIsExactlyOnce) {
  // Many lanes hammering a small key space: every key is computed exactly
  // once and hits + computes account for every call.
  ShardedMap<uint64_t, uint64_t, IdentityHash> map;
  constexpr size_t kKeys = 64;
  constexpr size_t kCallsPerLane = 2000;
  std::atomic<uint64_t> computes{0};
  std::atomic<uint64_t> hits{0};
  ParallelFor(4, 4, [&](size_t lane) {
    for (size_t c = 0; c < kCallsPerLane; ++c) {
      const uint64_t key = (lane * 31 + c) % kKeys;
      auto [value, hit] = map.GetOrCompute(key, [&] {
        computes.fetch_add(1);
        return key * 10;
      });
      ASSERT_EQ(value, key * 10);
      if (hit) hits.fetch_add(1);
    }
  });
  EXPECT_EQ(computes.load(), kKeys);
  EXPECT_EQ(hits.load() + computes.load(), 4 * kCallsPerLane);
  EXPECT_EQ(map.Size(), kKeys);
}

TEST(ShardedMapTest, ClearReportsErasedCount) {
  ShardedMap<uint64_t, int, IdentityHash> map;
  for (uint64_t k = 0; k < 100; ++k) {
    map.GetOrCompute(k, [] { return 0; });
  }
  EXPECT_EQ(map.Size(), 100u);
  EXPECT_EQ(map.Clear(), 100u);
  EXPECT_EQ(map.Size(), 0u);
  EXPECT_EQ(map.Clear(), 0u);
}

TEST(ShardedMapTest, GetFindsOnlyPresentKeys) {
  ShardedMap<uint64_t, int, IdentityHash> map;
  map.GetOrCompute(3, [] { return 33; });
  int out = 0;
  EXPECT_TRUE(map.Get(3, &out));
  EXPECT_EQ(out, 33);
  EXPECT_FALSE(map.Get(4, &out));
}

TEST(ShardedMapTest, ShardSelectionUsesHighBitsAndSpreads) {
  // Sequential keys (worst case for multiplicative hashes) must spread
  // over all shards, and shard choice must not mirror the low hash bits
  // the unordered_map buckets consume.
  using Map = ShardedMap<uint64_t, int, IdentityHash>;
  std::vector<size_t> load(Map::shard_count(), 0);
  constexpr size_t kKeys = 32 * 1024;
  for (uint64_t k = 0; k < kKeys; ++k) ++load[Map::ShardIndex(k)];
  const size_t expected = kKeys / Map::shard_count();
  for (size_t s = 0; s < load.size(); ++s) {
    // Chi-square-ish tolerance: within 25% of uniform.
    EXPECT_GT(load[s], expected * 3 / 4) << "shard " << s;
    EXPECT_LT(load[s], expected * 5 / 4) << "shard " << s;
  }
}

TEST(SharedDeadlineTest, UnboundedNeverExpires) {
  rt::Deadline deadline;  // unbounded
  SharedDeadlinePoller poller(deadline, /*stride=*/1);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(poller.Expired());
  EXPECT_FALSE(poller.expired());
}

TEST(SharedDeadlineTest, ExpiredDeadlineLatchesForEveryLane) {
  const rt::Deadline deadline = rt::Deadline::After(0.0);
  SharedDeadlinePoller poller(deadline, /*stride=*/1);
  EXPECT_TRUE(poller.Expired());
  // Latched: every lane sees it without consulting the clock again.
  std::atomic<int> seen{0};
  ParallelFor(4, 64, [&](size_t) {
    if (poller.Expired()) seen.fetch_add(1);
  });
  EXPECT_EQ(seen.load(), 64);
  EXPECT_TRUE(poller.expired());
}

TEST(SharedDeadlineTest, StrideAmortizesClockReads) {
  // With a large stride the first call ticks the clock and the next
  // stride-1 calls are pure counter increments; this only checks the
  // latch stays false on an unbounded deadline (no way to observe clock
  // reads directly without a fake clock).
  rt::Deadline deadline;
  SharedDeadlinePoller poller(deadline, /*stride=*/1024);
  for (int i = 0; i < 10000; ++i) ASSERT_FALSE(poller.Expired());
}

TEST(HashTest, SplitMix64MixesLowBitsIntoHighBits) {
  // Sequential inputs — the adversarial case for the old multiplicative
  // chain — must produce well-spread high bytes.
  std::vector<size_t> bucket(256, 0);
  constexpr uint64_t kN = 64 * 1024;
  for (uint64_t v = 0; v < kN; ++v) ++bucket[SplitMix64(v) >> 56];
  const size_t expected = kN / 256;
  for (size_t b = 0; b < bucket.size(); ++b) {
    EXPECT_GT(bucket[b], expected / 2) << "bucket " << b;
    EXPECT_LT(bucket[b], expected * 2) << "bucket " << b;
  }
}

}  // namespace
}  // namespace idxsel::exec
