// Tests for src/mem: the tier ladder, placement, the burst cost model and
// the host page cache, plus the per-rank contention pools the ladder feeds.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mem/access_cost.hpp"
#include "mem/page_cache.hpp"
#include "mem/placement.hpp"
#include "mem/tier.hpp"
#include "platform/concurrency.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

TEST(TierSpec, PaperDefaults) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_EQ(cfg.tier_count(), 2u);
  EXPECT_NEAR(cfg.cost_ratio(), 2.5, 1e-9);
  EXPECT_GT(cfg.tiers[1].read_latency_ns, cfg.tiers[0].read_latency_ns);
  EXPECT_LT(cfg.tiers[1].read_bw_bytes_per_ns, cfg.tiers[0].read_bw_bytes_per_ns);
  EXPECT_LT(cfg.tiers[1].write_bw_bytes_per_ns, cfg.tiers[1].read_bw_bytes_per_ns);
  EXPECT_GT(cfg.tiers[1].random_granularity_bytes,
            cfg.tiers[0].random_granularity_bytes);
  EXPECT_EQ(cfg.cores, 20);
}

TEST(TierSpec, LadderPresetsAreOrdered) {
  // Every preset must be a proper ladder: each rung slower (latency) and
  // cheaper ($/MiB) than the one above, so Eq-1's per-rank ratios are
  // monotone and the cost/slowdown frontier is well-defined.
  for (const SystemConfig& cfg :
       {SystemConfig::paper_default(), SystemConfig::cxl_host(),
        SystemConfig::nvme_host()}) {
    ASSERT_GE(cfg.tier_count(), 2u);
    ASSERT_LE(cfg.tier_count(), kMaxTiers);
    for (size_t r = 1; r < cfg.tier_count(); ++r) {
      EXPECT_GT(cfg.tiers[r].read_latency_ns, cfg.tiers[r - 1].read_latency_ns)
          << cfg.tiers[r].name;
      EXPECT_LT(cfg.tiers[r].cost_per_mib, cfg.tiers[r - 1].cost_per_mib)
          << cfg.tiers[r].name;
    }
    // rank_cost_ratios: ascending rank order, every ratio > 1, strictly
    // increasing (deeper is cheaper).
    const auto ratios = cfg.rank_cost_ratios();
    ASSERT_EQ(ratios.size(), cfg.tier_count() - 1);
    double prev = 1.0;
    for (double ratio : ratios) {
      EXPECT_GT(ratio, prev);
      prev = ratio;
    }
    EXPECT_DOUBLE_EQ(cfg.rank_cost_ratio(0), 1.0);
    EXPECT_EQ(tier_rank(cfg.deepest_tier()), cfg.tier_count() - 1);
    EXPECT_EQ(&cfg.fastest(), &cfg.tiers.front());
    EXPECT_EQ(&cfg.deepest(), &cfg.tiers.back());
  }
  EXPECT_EQ(SystemConfig::cxl_host().tier_count(), 3u);
  EXPECT_EQ(SystemConfig::nvme_host().tier_count(), 4u);
}

TEST(TierSpec, TierNamesFollowRank) {
  EXPECT_STREQ(tier_name(tier_index(0)), "fast");
  EXPECT_STREQ(tier_name(tier_index(1)), "slow");
  EXPECT_STREQ(tier_name(tier_index(2)), "tier2");
  EXPECT_STREQ(tier_name(tier_index(3)), "tier3");
  EXPECT_EQ(tier_rank(tier_index(4)), 4u);
}

#ifdef TOSS_CHECKED
TEST(TierSpecDeathTest, LookupOutsideLadderAborts) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_DEATH(cfg.tier(tier_index(2)), "outside the ladder");
  EXPECT_DEATH(cfg.rank_cost_ratio(5), "outside the ladder");
}
#endif  // TOSS_CHECKED

TEST(TierSpec, CxlHostIsGentlerSlowTier) {
  // Section III: TOSS works for any tier pair. The CXL-DDR4 rung has lower
  // latency, symmetric bandwidth and no random-access amplification
  // compared to Optane, so fully-offloaded slowdowns shrink.
  const SystemConfig pmem = SystemConfig::paper_default();
  const SystemConfig cxl = SystemConfig::cxl_host();
  EXPECT_LT(cxl.tiers[1].read_latency_ns, pmem.tiers[1].read_latency_ns);
  EXPECT_DOUBLE_EQ(cxl.tiers[1].read_bw_bytes_per_ns,
                   cxl.tiers[1].write_bw_bytes_per_ns);
  EXPECT_DOUBLE_EQ(cxl.tiers[1].random_granularity_bytes, kCacheLine);
  EXPECT_GT(cxl.cost_ratio(), 1.0);

  AccessCostModel pmem_model(pmem), cxl_model(cxl);
  const double pmem_penalty =
      pmem_model.access_cost(tier_index(1), Pattern::kRandom, 0.0) /
      pmem_model.access_cost(tier_index(0), Pattern::kRandom, 0.0);
  const double cxl_penalty =
      cxl_model.access_cost(tier_index(1), Pattern::kRandom, 0.0) /
      cxl_model.access_cost(tier_index(0), Pattern::kRandom, 0.0);
  EXPECT_LT(cxl_penalty, pmem_penalty);
}

TEST(Placement, DefaultsToFast) {
  PagePlacement p(100);
  EXPECT_EQ(p.runs(), (std::vector<PageRun<Tier>>{{0, 100, tier_index(0)}}));
  EXPECT_EQ(p.pages_per_rank(2), (std::vector<u64>{100, 0}));
  EXPECT_DOUBLE_EQ(p.slow_fraction(), 0.0);
}

TEST(Placement, SetRangeAndCount) {
  PagePlacement p(100);
  p.set_range(10, 30, tier_index(1));
  EXPECT_EQ(p.runs(), (std::vector<PageRun<Tier>>{{0, 10, tier_index(0)},
                                                  {10, 30, tier_index(1)},
                                                  {40, 60, tier_index(0)}}));
  EXPECT_EQ(p.pages_per_rank(2), (std::vector<u64>{70, 30}));
  EXPECT_EQ(p.rank_of(9), 0u);
  EXPECT_EQ(p.rank_of(10), 1u);
  EXPECT_EQ(p.rank_of(39), 1u);
  EXPECT_EQ(p.rank_of(40), 0u);
  EXPECT_DOUBLE_EQ(p.slow_fraction(), 0.3);
}

TEST(Placement, WholeRangeAndEquality) {
  PagePlacement a(16), b(16);
  a.set_range(0, 16, tier_index(1));
  EXPECT_NE(a, b);
  b.set_range(0, 16, tier_index(1));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, PagePlacement(16, tier_index(1)));
  EXPECT_DOUBLE_EQ(a.slow_fraction(), 1.0);
}

TEST(Placement, PerRankCountsAndDeepFractions) {
  // A three-rung placement: 50 pages fast, 30 at rank 1, 20 at rank 2.
  PagePlacement p(100);
  p.set_range(50, 30, tier_index(1));
  p.set_range(80, 20, tier_index(2));
  const auto per_rank = p.pages_per_rank(3);
  ASSERT_EQ(per_rank.size(), 3u);
  EXPECT_EQ(per_rank[0], 50u);
  EXPECT_EQ(per_rank[1], 30u);
  EXPECT_EQ(per_rank[2], 20u);
  // slow_fraction still means "anything below the fastest rung".
  EXPECT_DOUBLE_EQ(p.slow_fraction(), 0.5);
  const auto fracs = p.deep_fractions(3);
  ASSERT_EQ(fracs.size(), 2u);
  EXPECT_DOUBLE_EQ(fracs[0], 0.3);
  EXPECT_DOUBLE_EQ(fracs[1], 0.2);
}

TEST(ExpandBurst, UniformSumsExactly) {
  AccessBurst b{0, 10, 1234, Pattern::kSequential, 0.0, 0.0};
  const auto counts = expand_burst_counts(b);
  ASSERT_EQ(counts.size(), 10u);
  u64 sum = 0;
  for (u64 c : counts) sum += c;
  EXPECT_EQ(sum, 1234u);
}

TEST(ExpandBurst, ZipfHotPrefix) {
  AccessBurst b{0, 100, 100000, Pattern::kRandom, 0.0, 1.0};
  const auto counts = expand_burst_counts(b);
  u64 sum = 0;
  for (u64 c : counts) sum += c;
  EXPECT_EQ(sum, 100000u);
  // Non-increasing by construction, first page hottest.
  for (size_t i = 1; i < counts.size(); ++i)
    EXPECT_GE(counts[i - 1], counts[i]);
  EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(ExpandBurst, ZeroAccesses) {
  AccessBurst b{0, 4, 0, Pattern::kRandom, 0.0, 0.5};
  const auto counts = expand_burst_counts(b);
  for (u64 c : counts) EXPECT_EQ(c, 0u);
}

/// The direct expansion loop expand_burst_counts memoizes: std::pow per
/// page and the normalizer summed in page order.
std::vector<u64> direct_burst_counts(const AccessBurst& burst) {
  std::vector<u64> counts(burst.page_count, 0);
  if (burst.accesses == 0) return counts;
  if (burst.zipf_theta <= 1e-9) {
    const u64 base = burst.accesses / burst.page_count;
    const u64 rem = burst.accesses % burst.page_count;
    for (u64 i = 0; i < burst.page_count; ++i)
      counts[i] = base + (i < rem ? 1 : 0);
    return counts;
  }
  double z = 0.0;
  std::vector<double> w(burst.page_count);
  for (u64 i = 0; i < burst.page_count; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), burst.zipf_theta);
    z += w[i];
  }
  u64 assigned = 0;
  for (u64 i = 0; i < burst.page_count; ++i) {
    counts[i] = static_cast<u64>(
        static_cast<double>(burst.accesses) * w[i] / z);
    assigned += counts[i];
  }
  counts[0] += burst.accesses - assigned;
  return counts;
}

TEST(ExpandBurst, MemoizedZipfMatchesDirectLoopBitForBit) {
  Rng rng(0x5eed);
  const double thetas[] = {0.0, 0.1, 0.3, 0.5, 0.6, 0.8, 1.0, 1.3};
  AccessBurst b{0, 1, 0, Pattern::kRandom, 0.0, 0.0};
  for (int round = 0; round < 200; ++round) {
    b.zipf_theta = thetas[rng.next_below(std::size(thetas))];
    b.page_count = 1 + rng.next_below(round % 4 == 0 ? 20000 : 700);
    b.accesses = rng.next_below(5'000'000);
    EXPECT_EQ(expand_burst_counts(b), direct_burst_counts(b))
        << "theta " << b.zipf_theta << " pages " << b.page_count;
  }
  // A shorter burst after a longer one on the same theta reads the grown
  // table's prefix, including its running sum at the shorter length.
  for (const u64 pages : {9000u, 17u, 4096u, 1u, 8999u}) {
    b = AccessBurst{0, pages, 777'777, Pattern::kRandom, 0.0, 0.7};
    EXPECT_EQ(expand_burst_counts(b), direct_burst_counts(b)) << pages;
  }
  // A theta that is not one of the preset values still matches.
  b = AccessBurst{0, 300, 123'456, Pattern::kSequential, 0.0, 0.4242};
  EXPECT_EQ(expand_burst_counts(b), direct_burst_counts(b));
}

// ---------------------------------------------------------------------------
// BurstSpread against the materialised expansion it replaces.
// ---------------------------------------------------------------------------

/// `spread`'s runs must be the expansion's maximal runs of equal count
/// over the prefix: walked from page 0, and from `probes` random pages.
void expect_runs_match(const BurstSpread& spread,
                       const std::vector<u64>& counts, Rng& rng,
                       int probes) {
  const u64 nz = spread.nonzero_pages();
  std::vector<u64> end(nz);  // the expansion's run end for each page
  for (u64 i = nz; i-- > 0;)
    end[i] = i + 1 < nz && counts[i + 1] == counts[i] ? end[i + 1] : i + 1;
  for (u64 i = 0; i < nz; i = end[i])
    ASSERT_EQ(spread.run_end(i), end[i]) << "run at page " << i;
  for (int k = 0; k < probes && nz > 0; ++k) {
    const u64 i = rng.next_below(nz);
    EXPECT_EQ(spread.run_end(i), end[i]) << "page " << i;
  }
}

/// `b`'s spread must mark exactly the expansion's nonzero pages as its
/// prefix [0, nonzero_pages()), give each page's count, find its runs,
/// and sum any range as the expansion does: the whole burst, cuts at the
/// prefix end and at the uniform remainder, and `cuts` random ranges.
void expect_spread_matches(const AccessBurst& b, Rng& rng, int cuts = 16) {
  const std::vector<u64> counts =
      b.page_count > 0 ? expand_burst_counts(b) : std::vector<u64>{};
  const BurstSpread spread(b);
  ASSERT_LE(spread.nonzero_pages(), b.page_count);
  std::vector<u64> prefix(b.page_count + 1, 0);
  u64 first_bad = b.page_count;
  for (u64 i = 0; i < b.page_count; ++i) {
    prefix[i + 1] = prefix[i] + counts[i];
    if (first_bad == b.page_count &&
        ((counts[i] > 0) != (i < spread.nonzero_pages()) ||
         spread.at(i) != counts[i]))
      first_bad = i;
  }
  EXPECT_EQ(first_bad, b.page_count)
      << "page " << first_bad << " of " << b.page_count << ", prefix "
      << spread.nonzero_pages();
  EXPECT_EQ(spread.total(), prefix[b.page_count]);
  if (first_bad == b.page_count) expect_runs_match(spread, counts, rng, cuts);
  const u64 n = b.page_count;
  const u64 nz = spread.nonzero_pages();
  const u64 rem = n > 0 ? b.accesses % n : 0;
  const std::pair<u64, u64> fixed[] = {
      {0, n}, {0, nz}, {nz, n}, {0, std::min(nz + 1, n)},
      {nz > 0 ? nz - 1 : 0, n}, {0, std::min(rem, n)},
      {std::min(rem, n), n}, {rem > 0 ? rem - 1 : 0, std::min(rem + 1, n)},
      {0, std::min<u64>(1, n)}, {std::min<u64>(1, n), n}};
  for (const auto& [lo, hi] : fixed)
    EXPECT_EQ(spread.sum(lo, hi), prefix[hi] - prefix[lo])
        << "[" << lo << ", " << hi << ") of " << n;
  for (int k = 0; k < cuts; ++k) {
    u64 lo = rng.next_below(n + 1);
    u64 hi = rng.next_below(n + 1);
    if (lo > hi) std::swap(lo, hi);
    EXPECT_EQ(spread.sum(lo, hi), prefix[hi] - prefix[lo])
        << "[" << lo << ", " << hi << ") of " << n;
  }
}

TEST(BurstSpread, MatchesTheExpansionOnEveryTableOneBurst) {
  const FunctionRegistry reg = FunctionRegistry::table1();
  Rng rng(0xb0057);
  for (const FunctionModel& m : reg.models()) {
    for (int input = 0; input < kNumInputs; ++input) {
      for (const u64 seed : {1u, 2u, 3u}) {
        const Invocation inv = m.invoke(input, seed);
        const AccessBurst* prev = nullptr;
        for (const AccessBurst& b : inv.trace.bursts()) {
          if (prev != nullptr && b == *prev) continue;  // same spread
          prev = &b;
          SCOPED_TRACE(m.name() + " input " + std::to_string(input) +
                       " seed " + std::to_string(seed));
          expect_spread_matches(b, rng);
        }
      }
    }
  }
}

TEST(BurstSpread, EdgeCases) {
  Rng rng(7);
  const double kCutoff = 1e-9;  // thetas at or below it spread uniformly
  const AccessBurst cases[] = {
      // Zero accesses, uniform and Zipf: an empty prefix.
      {0, 4, 0, Pattern::kRandom, 0.0, 0.0},
      {0, 4, 0, Pattern::kRandom, 0.0, 0.5},
      // Uniform with fewer accesses than pages: the remainder's prefix.
      {10, 100, 37, Pattern::kSequential, 0.0, 0.0},
      {10, 100, 99, Pattern::kSequential, 0.5, 0.0},
      {10, 100, 101, Pattern::kSequential, 0.5, 0.0},
      // A single page.
      {5, 1, 999, Pattern::kRandom, 0.3, 0.0},
      {5, 1, 999, Pattern::kRandom, 0.3, 1.0},
      {5, 1, 1, Pattern::kRandom, 0.0, 0.8},
      // No page's share reaches one access: page 0 holds all of them,
      // through the rounding drift alone.
      {0, 1000, 3, Pattern::kRandom, 0.0, 0.5},
      // Theta at the uniform cut-off, and the first Zipf theta above it
      // (near-uniform weights: every share rounds the same way).
      {0, 1000, 12345, Pattern::kRandom, 0.0, kCutoff},
      {0, 1000, 12345, Pattern::kRandom, 0.0, std::nextafter(kCutoff, 1.0)},
      {0, 1000, 500, Pattern::kRandom, 0.0, kCutoff},
      {0, 1000, 500, Pattern::kRandom, 0.0, std::nextafter(kCutoff, 1.0)},
  };
  for (const AccessBurst& b : cases) {
    SCOPED_TRACE(std::to_string(b.page_count) + " pages, " +
                 std::to_string(b.accesses) + " accesses, theta " +
                 std::to_string(b.zipf_theta));
    expect_spread_matches(b, rng, 64);
  }
  // The drift case really is one: every Zipf share rounds to zero.
  const BurstSpread drift(cases[8]);
  EXPECT_EQ(drift.nonzero_pages(), 1u);
  EXPECT_EQ(drift.at(0), 3u);
  // The cut-off is inclusive: uniform there, Zipf just above it.
  EXPECT_EQ(BurstSpread(cases[11]).nonzero_pages(), 500u);
  EXPECT_EQ(BurstSpread(cases[12]).nonzero_pages(), 1u);
  // A zero-page burst spreads nothing.
  const BurstSpread empty(AccessBurst{3, 0, 50, Pattern::kRandom, 0.0, 0.7});
  EXPECT_EQ(empty.nonzero_pages(), 0u);
  EXPECT_EQ(empty.total(), 0u);
  EXPECT_EQ(empty.sum(0, 10), 0u);
}

#ifdef TOSS_CHECKED
TEST(BurstSpreadDeathTest, OutlivingItsZipfTableIsCaught) {
  // An unusual theta, so no earlier test has grown its table this far.
  const AccessBurst small{0, 100, 5000, Pattern::kRandom, 0.0, 0.7171};
  const AccessBurst large{0, 200000, 1, Pattern::kRandom, 0.0, 0.7171};
  EXPECT_DEATH(
      {
        const BurstSpread spread(small);
        (void)expand_burst_counts(large);  // grows the table under it
        (void)spread.sum(0, 100);
      },
      "outlived its Zipf table");
}
#endif  // TOSS_CHECKED

class AccessCostTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  AccessCostModel model{cfg};
};

TEST_F(AccessCostTest, SlowTierCostsMore) {
  for (auto pattern : {Pattern::kSequential, Pattern::kRandom}) {
    for (double wf : {0.0, 0.5, 1.0}) {
      EXPECT_GT(model.access_cost(tier_index(1), pattern, wf),
                model.access_cost(tier_index(0), pattern, wf))
          << pattern_name(pattern) << " wf=" << wf;
    }
  }
}

TEST_F(AccessCostTest, RandomCostsMoreThanSequential) {
  for (auto tier : {tier_index(0), tier_index(1)}) {
    EXPECT_GT(model.access_cost(tier, Pattern::kRandom, 0.0),
              model.access_cost(tier, Pattern::kSequential, 0.0));
  }
}

TEST(AccessCostLadder, DeeperRungsCostMoreEveryPreset) {
  // Each rung down must be strictly slower per access, for both patterns —
  // otherwise the Eq-1 sweep's monotone frontier assumption breaks.
  for (const SystemConfig& cfg :
       {SystemConfig::cxl_host(), SystemConfig::nvme_host()}) {
    AccessCostModel model(cfg);
    for (auto pattern : {Pattern::kSequential, Pattern::kRandom}) {
      for (size_t r = 1; r < cfg.tier_count(); ++r) {
        EXPECT_GT(model.access_cost(tier_index(r), pattern, 0.0),
                  model.access_cost(tier_index(r - 1), pattern, 0.0))
            << cfg.tiers[r].name << " " << pattern_name(pattern);
      }
    }
  }
}

TEST_F(AccessCostTest, BurstTimeUniformMatchesPlacement) {
  AccessBurst b{0, 64, 10000, Pattern::kRandom, 0.2, 0.7};
  const auto counts = expand_burst_counts(b);
  PagePlacement all_fast(64, tier_index(0));
  PagePlacement all_slow(64, tier_index(1));
  EXPECT_NEAR(model.burst_time(b, counts, all_fast),
              model.burst_time_uniform(b, tier_index(0)), 1e-6);
  EXPECT_NEAR(model.burst_time(b, counts, all_slow),
              model.burst_time_uniform(b, tier_index(1)), 1e-6);
}

TEST_F(AccessCostTest, MixedPlacementBetweenExtremes) {
  AccessBurst b{0, 64, 10000, Pattern::kRandom, 0.0, 0.5};
  const auto counts = expand_burst_counts(b);
  PagePlacement mixed(64, tier_index(0));
  mixed.set_range(32, 32, tier_index(1));
  const Nanos fast = model.burst_time_uniform(b, tier_index(0));
  const Nanos slow = model.burst_time_uniform(b, tier_index(1));
  const Nanos mid = model.burst_time(b, counts, mixed);
  EXPECT_GT(mid, fast);
  EXPECT_LT(mid, slow);
}

TEST_F(AccessCostTest, OffloadingColdHalfCheaperThanHotHalf) {
  // Hot prefix: offloading the *tail* must cost less than the head.
  AccessBurst b{0, 64, 100000, Pattern::kRandom, 0.0, 1.2};
  const auto counts = expand_burst_counts(b);
  PagePlacement cold_off(64, tier_index(0)), hot_off(64, tier_index(0));
  cold_off.set_range(32, 32, tier_index(1));
  hot_off.set_range(0, 32, tier_index(1));
  EXPECT_LT(model.burst_time(b, counts, cold_off),
            model.burst_time(b, counts, hot_off));
}

TEST_F(AccessCostTest, DemandBytesSplitByWriteFraction) {
  AccessBurst b{0, 16, 1000, Pattern::kSequential, 0.25, 0.0};
  const auto counts = expand_burst_counts(b);
  PagePlacement all_slow(16, tier_index(1));
  const BurstCost c = model.burst_cost(b, counts, all_slow);
  EXPECT_DOUBLE_EQ(c.tier_read_bytes[0], 0.0);
  EXPECT_NEAR(c.tier_write_bytes[1] /
                  (c.tier_read_bytes[1] + c.tier_write_bytes[1]),
              0.25, 1e-9);
  // Sequential: demand = accesses * cache line.
  EXPECT_NEAR(c.tier_read_bytes[1] + c.tier_write_bytes[1],
              1000.0 * kCacheLine, 1e-6);
}

TEST_F(AccessCostTest, RandomDemandAmplifiedOnSlowTier) {
  AccessBurst b{0, 16, 1000, Pattern::kRandom, 0.0, 0.0};
  const auto counts = expand_burst_counts(b);
  PagePlacement slow(16, tier_index(1)), fast(16, tier_index(0));
  const BurstCost cs = model.burst_cost(b, counts, slow);
  const BurstCost cf = model.burst_cost(b, counts, fast);
  EXPECT_NEAR(cs.tier_read_bytes[1],
              1000.0 * cfg.tiers[1].random_granularity_bytes, 1e-6);
  EXPECT_NEAR(cf.tier_read_bytes[0],
              1000.0 * cfg.tiers[0].random_granularity_bytes, 1e-6);
}

TEST(AccessCostLadder, BurstCostChargesTheResidentRank) {
  // On a three-rung host a burst whose pages all sit at rank 2 must charge
  // time and device demand to rank 2 only — the pools are per rung, not a
  // fast/slow pair.
  const SystemConfig cfg = SystemConfig::cxl_host();
  AccessCostModel model(cfg);
  AccessBurst b{0, 32, 5000, Pattern::kRandom, 0.0, 0.0};
  const auto counts = expand_burst_counts(b);
  PagePlacement deep(32, tier_index(2));
  const BurstCost c = model.burst_cost(b, counts, deep);
  EXPECT_GT(c.tier_ns[2], 0);
  EXPECT_GT(c.tier_read_bytes[2], 0.0);
  EXPECT_EQ(c.tier_ns[0], 0);
  EXPECT_EQ(c.tier_ns[1], 0);
  EXPECT_DOUBLE_EQ(c.tier_read_bytes[0], 0.0);
  EXPECT_DOUBLE_EQ(c.tier_read_bytes[1], 0.0);
  EXPECT_EQ(c.total_ns(), c.tier_ns[2]);
}

// ---------------------------------------------------------------------------
// Per-tier contention pools: run_concurrent keeps one bandwidth pool per
// ladder rank, so pressure on one rung must not slow traffic on another.
// ---------------------------------------------------------------------------

class ContentionLadderTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::cxl_host();  // 3 rungs

  // A memory-bound solo run whose demand lands entirely on `rank`.
  SoloRun bound_to_rank(size_t rank, double gb, Nanos exec) {
    SoloRun r;
    r.exec.exec_ns = exec;
    r.exec.cpu_ns = exec * 0.2;
    r.demand.tier_ns[rank] = exec * 0.8;
    r.exec.mem_ns = r.demand.tier_ns[rank];
    r.demand.tier_read_bytes[rank] = gb * 1e9;
    return r;
  }
};

TEST_F(ContentionLadderTest, PoolsAreIndependentPerRung) {
  // 20 invocations hammering rank 2 saturate only rank 2's pool.
  std::vector<SoloRun> solo(20, bound_to_rank(2, 40.0, ms(100)));
  const auto out = run_concurrent(cfg, solo);
  EXPECT_GT(out.factors.tier[2], 1.5);
  EXPECT_DOUBLE_EQ(out.factors.tier[0], 1.0);
  EXPECT_DOUBLE_EQ(out.factors.tier[1], 1.0);
  EXPECT_GT(out.exec_ns[0], ms(100));
}

TEST_F(ContentionLadderTest, MixedRungLoadContendsSeparately) {
  // Half the fleet on rank 1, half on rank 2: each pool sees only its own
  // demand, so both factors exceed 1 and the rank-1 factor stays close to
  // what the same rank-1 load produces alone.
  std::vector<SoloRun> solo;
  for (int i = 0; i < 10; ++i) solo.push_back(bound_to_rank(1, 40.0, ms(100)));
  for (int i = 0; i < 10; ++i) solo.push_back(bound_to_rank(2, 40.0, ms(100)));
  const auto mixed = run_concurrent(cfg, solo);
  EXPECT_GT(mixed.factors.tier[1], 1.0);
  EXPECT_GT(mixed.factors.tier[2], 1.0);

  std::vector<SoloRun> rank1_only(10, bound_to_rank(1, 40.0, ms(100)));
  const auto solo1 = run_concurrent(cfg, rank1_only);
  EXPECT_NEAR(solo1.factors.tier[1], mixed.factors.tier[1],
              mixed.factors.tier[1] * 0.25);
  EXPECT_DOUBLE_EQ(solo1.factors.tier[2], 1.0);
}

TEST(PageCache, FillWithReadahead) {
  HostPageCache cache(8);
  EXPECT_FALSE(cache.contains(1, 100));
  cache.fill(1, 100);
  for (u64 p = 100; p < 108; ++p) EXPECT_TRUE(cache.contains(1, p));
  EXPECT_FALSE(cache.contains(1, 108));
  EXPECT_FALSE(cache.contains(2, 100));  // other file unaffected
}

TEST(PageCache, FillOneNoReadahead) {
  HostPageCache cache(32);
  cache.fill_one(1, 50);
  EXPECT_TRUE(cache.contains(1, 50));
  EXPECT_FALSE(cache.contains(1, 51));
}

TEST(PageCache, FillReturnsNewlyCached) {
  HostPageCache cache(4);
  EXPECT_EQ(cache.fill(1, 0), 4u);
  EXPECT_EQ(cache.fill(1, 2), 2u);  // 2,3 already cached
}

TEST(PageCache, CountCachedIsThePopcountOfARange) {
  HostPageCache cache(4);
  cache.fill_range(3, 60, 10);  // straddles the first word boundary
  cache.fill_one(3, 200);
  EXPECT_EQ(cache.count_cached(3, 0, 300), 11u);
  EXPECT_EQ(cache.count_cached(3, 62, 3), 3u);
  EXPECT_EQ(cache.count_cached(3, 70, 100), 0u);
  EXPECT_EQ(cache.count_cached(3, 5000, 64), 0u);  // past the bitmap
  EXPECT_EQ(cache.count_cached(9, 0, 64), 0u);     // unknown file
}

TEST(PageCache, BitmapAgreesWithASetReference) {
  // Seeded random operations against a std::set of (file, page): several
  // file ids, ranges across word boundaries and pages past the last
  // bitmap word, with drops in between.
  constexpr u64 kReadahead = 5;
  HostPageCache cache(kReadahead);
  std::set<std::pair<u64, u64>> ref;
  Rng rng(42);
  const auto page = [&] {
    return rng.next_below(4) == 0 ? 1000 + rng.next_below(3000)
                                  : rng.next_below(300);
  };
  for (int op = 0; op < 5000; ++op) {
    const u64 file = 1 + rng.next_below(5);
    switch (rng.next_below(7)) {
      case 0: {
        const u64 p = page();
        u64 added = 0;
        for (u64 q = p; q < p + kReadahead; ++q)
          added += ref.insert({file, q}).second ? 1 : 0;
        ASSERT_EQ(cache.fill(file, p), added) << "op " << op;
        break;
      }
      case 1: {
        const u64 p = page();
        cache.fill_one(file, p);
        ref.insert({file, p});
        break;
      }
      case 2: {
        const u64 p = page(), n = rng.next_below(200);
        cache.fill_range(file, p, n);
        for (u64 q = p; q < p + n; ++q) ref.insert({file, q});
        break;
      }
      case 3: {
        const u64 p = page();
        ASSERT_EQ(cache.contains(file, p), ref.count({file, p}) > 0)
            << "op " << op;
        break;
      }
      case 4: {
        const u64 p = page(), n = rng.next_below(300);
        u64 want = 0;
        for (u64 q = p; q < p + n; ++q) want += ref.count({file, q});
        ASSERT_EQ(cache.count_cached(file, p, n), want) << "op " << op;
        break;
      }
      case 5:
        if (rng.next_below(20) == 0) {
          cache.drop();
          ref.clear();
        }
        break;
      default:
        break;
    }
    ASSERT_EQ(cache.cached_pages(), static_cast<u64>(ref.size()))
        << "op " << op;
  }
  for (u64 file = 0; file < 7; ++file)
    for (u64 p = 0; p < 4100; ++p)
      ASSERT_EQ(cache.contains(file, p), ref.count({file, p}) > 0);
}

TEST(PageCache, FaultWordMatchesPerPageProbesAndFills) {
  // fault_word against the per-page loop it replaces: probe each page of
  // the mask in order with contains() and fill each miss (fill() with
  // readahead, fill_one() without) on a second cache. Offsets are mostly
  // not a multiple of 64, windows cross words, pages land past the
  // bitmaps' ends (growth), several files share each cache, and drops
  // fall between rounds.
  for (const u64 readahead : {1u, 7u, 32u, 64u, 100u}) {
    SCOPED_TRACE("readahead " + std::to_string(readahead));
    HostPageCache cache(readahead), ref(readahead);
    Rng rng(readahead);
    u64 max_page = 0;
    for (int round = 0; round < 40; ++round) {
      for (int op = 0; op < 60; ++op) {
        const u64 file = 1 + rng.next_below(4);
        // Near earlier pages (hits, crossing windows) or far past them.
        const u64 file_page = rng.next_below(4) == 0
                                  ? rng.next_below(20000)
                                  : rng.next_below(600);
        u64 pages = rng.next();
        switch (rng.next_below(4)) {
          case 0: pages &= rng.next() & rng.next(); break;  // sparse
          case 1: pages = ~u64{0} << rng.next_below(64); break;  // suffix
          case 2: pages = ~u64{0} >> rng.next_below(64); break;  // prefix
          default: break;
        }
        const bool readahead_on = rng.next_below(2) == 0;
        u64 want = 0;
        for (u64 i = 0; i < kWordPages; ++i) {
          if (((pages >> i) & 1) == 0 || ref.contains(file, file_page + i))
            continue;
          want |= u64{1} << i;
          if (readahead_on) {
            ref.fill(file, file_page + i);
          } else {
            ref.fill_one(file, file_page + i);
          }
        }
        ASSERT_EQ(cache.fault_word(file, file_page, pages, readahead_on),
                  want)
            << "round " << round << " op " << op;
        ASSERT_EQ(cache.cached_pages(), ref.cached_pages());
        max_page = std::max(max_page, file_page + kWordPages + readahead);
      }
      for (u64 file = 0; file < 6; ++file) {
        for (u64 p = 0; p <= max_page; ++p)
          ASSERT_EQ(cache.contains(file, p), ref.contains(file, p))
              << "file " << file << " page " << p;
        // The cached runs, clipped at an arbitrary end, are the maximal
        // runs of contains().
        const u64 end = rng.next_below(max_page + 1);
        std::vector<std::pair<u64, u64>> runs, want_runs;
        cache.for_each_cached_run(
            file, end, [&](u64 b, u64 n) { runs.emplace_back(b, n); });
        for (u64 p = 0; p < end;) {
          if (!ref.contains(file, p)) {
            ++p;
            continue;
          }
          u64 q = p + 1;
          while (q < end && ref.contains(file, q)) ++q;
          want_runs.emplace_back(p, q - p);
          p = q;
        }
        ASSERT_EQ(runs, want_runs) << "file " << file << " end " << end;
      }
      if (rng.next_below(3) == 0) {
        cache.drop();
        ref.drop();
      }
    }
  }
}

TEST(PageCache, DropClearsEverything) {
  HostPageCache cache(4);
  cache.fill_range(1, 0, 100);
  EXPECT_EQ(cache.cached_pages(), 100u);
  cache.drop();
  EXPECT_EQ(cache.cached_pages(), 0u);
  EXPECT_FALSE(cache.contains(1, 0));
}

}  // namespace
}  // namespace toss
