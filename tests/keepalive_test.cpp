// Tests for the Greedy-Dual keep-alive cache (Section VI-A integration).
#include <gtest/gtest.h>

#include <string>

#include "platform/keepalive.hpp"

namespace toss {
namespace {

KeepAliveConfig small_pool(u64 dram_mb, u64 slow_mb = 64 * 1024) {
  KeepAliveConfig cfg;
  cfg.dram_capacity_bytes = dram_mb * kMiB;
  cfg.slow_capacity_bytes = slow_mb * kMiB;
  return cfg;
}

TEST(KeepAlive, HitAfterInsert) {
  KeepAliveCache cache(small_pool(1024));
  EXPECT_FALSE(cache.lookup("f"));
  EXPECT_TRUE(cache.insert("f", 128 * kMiB, 0, ms(100)));
  EXPECT_TRUE(cache.lookup("f"));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(KeepAlive, CapacityEnforced) {
  KeepAliveCache cache(small_pool(256));
  EXPECT_TRUE(cache.insert("a", 128 * kMiB, 0, ms(100)));
  EXPECT_TRUE(cache.insert("b", 128 * kMiB, 0, ms(100)));
  EXPECT_EQ(cache.warm_count(), 2u);
  EXPECT_TRUE(cache.insert("c", 128 * kMiB, 0, ms(100)));
  EXPECT_EQ(cache.warm_count(), 2u);  // someone was evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.dram_in_use(), 256 * kMiB);
}

TEST(KeepAlive, EvictsLowestPriority) {
  KeepAliveCache cache(small_pool(256));
  // "hot" has a high cold cost and gets hit repeatedly; "cold" does not.
  cache.insert("hot", 128 * kMiB, 0, ms(500));
  cache.insert("cold", 128 * kMiB, 0, ms(10));
  cache.lookup("hot");
  cache.lookup("hot");
  cache.insert("new", 128 * kMiB, 0, ms(100));
  EXPECT_TRUE(cache.contains("hot"));
  EXPECT_FALSE(cache.contains("cold"));
}

TEST(KeepAlive, TieredVmsPinLessDram) {
  // The Section VI-A observation: with 92% of each VM in the slow tier, a
  // DRAM budget that holds 2 DRAM-only VMs holds ~25 tiered VMs.
  KeepAliveCache dram_only(small_pool(2048));
  KeepAliveCache tiered(small_pool(2048));
  int dram_kept = 0, tiered_kept = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string name = "f" + std::to_string(i);
    if (dram_only.insert(name, 1024 * kMiB, 0, ms(300)))
      dram_kept = static_cast<int>(dram_only.warm_count());
    if (tiered.insert(name, 82 * kMiB, 942 * kMiB, ms(300)))
      tiered_kept = static_cast<int>(tiered.warm_count());
  }
  EXPECT_EQ(dram_kept, 2);
  EXPECT_GT(tiered_kept, 20);
}

TEST(KeepAlive, SlowPoolAlsoEnforced) {
  KeepAliveCache cache(small_pool(64 * 1024, 1024));
  EXPECT_TRUE(cache.insert("a", kMiB, 900 * kMiB, ms(100)));
  EXPECT_TRUE(cache.insert("b", kMiB, 900 * kMiB, ms(100)));
  EXPECT_EQ(cache.warm_count(), 1u);  // slow pool forced an eviction
  EXPECT_LE(cache.slow_in_use(), 1024 * kMiB);
}

TEST(KeepAlive, OversizedVmRejected) {
  KeepAliveCache cache(small_pool(256));
  EXPECT_FALSE(cache.insert("huge", kGiB, 0, ms(100)));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.warm_count(), 0u);
}

TEST(KeepAlive, ReinsertReplaces) {
  KeepAliveCache cache(small_pool(1024));
  cache.insert("f", 512 * kMiB, 0, ms(100));
  cache.insert("f", 128 * kMiB, 0, ms(100));
  EXPECT_EQ(cache.warm_count(), 1u);
  EXPECT_EQ(cache.dram_in_use(), 128 * kMiB);
}

TEST(KeepAlive, ExplicitEvict) {
  KeepAliveCache cache(small_pool(1024));
  cache.insert("f", 128 * kMiB, 0, ms(100));
  cache.evict("f");
  EXPECT_FALSE(cache.contains("f"));
  EXPECT_EQ(cache.dram_in_use(), 0u);
  cache.evict("ghost");  // harmless
}

TEST(KeepAlive, EvictionTieBreaksOnFunctionId) {
  // Two entries engineered to identical priority (same size, cold cost,
  // frequency, insertion clock). The victim must be the lexicographically
  // smaller function_id, so eviction order never depends on hash-map
  // iteration order (the determinism contract of DESIGN.md §9).
  KeepAliveCache cache(small_pool(256));
  cache.insert("beta", 128 * kMiB, 0, ms(100));
  cache.insert("alpha", 128 * kMiB, 0, ms(100));
  cache.insert("gamma", 128 * kMiB, 0, ms(100));  // forces one eviction
  EXPECT_FALSE(cache.contains("alpha"));
  EXPECT_TRUE(cache.contains("beta"));
  EXPECT_TRUE(cache.contains("gamma"));
}

TEST(KeepAlive, PredictedReuseBoostsPriority) {
  // Prewarm handshake: a warm VM whose next arrival is predicted soon gets
  // an urgency boost and outlives an otherwise-identical peer with no
  // prediction.
  KeepAliveConfig cfg = small_pool(256);
  cfg.urgency_halflife_ns = sec(1);
  KeepAliveCache cache(cfg);
  cache.insert("soon", 128 * kMiB, 0, ms(100), /*predicted_reuse_gap_ns=*/0);
  cache.insert("never", 128 * kMiB, 0, ms(100));  // no prediction
  cache.insert("new", 128 * kMiB, 0, ms(100));
  EXPECT_TRUE(cache.contains("soon"));
  EXPECT_FALSE(cache.contains("never"));
}

TEST(KeepAlive, EvictionChurnKeepsPoolBound) {
  // The cache's one owner (the arbiter, at the barrier) drives
  // insert-pressure evictions and, after every insert, the reads a tick
  // makes: a lookup, the gauges and the stats. The pool bound holds after
  // every insert, and the gauges and the entry count agree with the map.
  constexpr u64 kDramCapBytes = 256 * kMiB;
  constexpr u64 kDramBytes = 96 * kMiB;
  constexpr u64 kSlowBytes = 8 * kMiB;
  constexpr int kFunctions = 16;
  KeepAliveCache cache(small_pool(256));
  for (int i = 0; i < 2000; ++i) {
    // 96 MiB entries against a 256 MiB pool: every third insert evicts.
    cache.insert("f" + std::to_string(i % kFunctions), kDramBytes,
                 kSlowBytes, ms(50 + i % 97));
    if (i % 64 == 0) cache.evict_lowest();
    cache.lookup("f" + std::to_string(i * 7 % kFunctions));
    ASSERT_LE(cache.dram_in_use(), kDramCapBytes) << "insert " << i;
    size_t live = 0;
    for (int f = 0; f < kFunctions; ++f)
      live += cache.contains("f" + std::to_string(f)) ? 1 : 0;
    ASSERT_EQ(cache.warm_count(), live) << "insert " << i;
    ASSERT_EQ(cache.dram_in_use(), live * kDramBytes) << "insert " << i;
    ASSERT_EQ(cache.slow_in_use(), live * kSlowBytes) << "insert " << i;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(KeepAlive, AgingLetsNewEntriesWin) {
  // Greedy-Dual aging: after enough evictions raise the clock, a fresh
  // entry can outrank a stale high-cost one.
  KeepAliveCache cache(small_pool(256));
  cache.insert("stale", 128 * kMiB, 0, ms(50));
  for (int i = 0; i < 10; ++i)
    cache.insert("churn" + std::to_string(i), 128 * kMiB, 0, ms(400));
  EXPECT_FALSE(cache.contains("stale"));
}

}  // namespace
}  // namespace toss
