// Tests for src/trace: burst traces, page access counts, regions and the
// working-set trackers.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "trace/burst.hpp"
#include "trace/pattern.hpp"
#include "trace/region.hpp"
#include "trace/working_set.hpp"
#include "util/rng.hpp"

namespace toss {
namespace {

BurstTrace two_burst_trace() {
  BurstTrace t;
  t.push_back(AccessBurst{0, 8, 800, Pattern::kSequential, 0.0, 0.0});
  t.push_back(AccessBurst{16, 4, 400, Pattern::kRandom, 0.5, 0.0});
  return t;
}

TEST(BurstTrace, TotalsAndFootprint) {
  const BurstTrace t = two_burst_trace();
  EXPECT_EQ(t.total_accesses(), 1200u);
  EXPECT_EQ(t.footprint_pages(32), 12u);
  EXPECT_EQ(t.max_page_end(), 20u);
}

TEST(BurstTrace, OverlappingBurstsCountedOnceInFootprint) {
  BurstTrace t;
  t.push_back(AccessBurst{0, 10, 100, Pattern::kSequential, 0.0, 0.0});
  t.push_back(AccessBurst{5, 10, 100, Pattern::kSequential, 0.0, 0.0});
  EXPECT_EQ(t.footprint_pages(32), 15u);
}

TEST(PageAccessCounts, FromTraceSumsTheBursts) {
  const BurstTrace t = two_burst_trace();
  const PageAccessCounts counts = PageAccessCounts::from_trace(t, 32);
  EXPECT_EQ(counts.total_accesses(), 1200u);
  EXPECT_EQ(counts.at(0), 100u);   // 800 uniform over 8 pages
  EXPECT_EQ(counts.at(16), 100u);  // 400 uniform over 4 pages
  EXPECT_EQ(counts.at(10), 0u);
}

TEST(BurstTrace, TimeUnderPlacementConsistent) {
  const SystemConfig cfg = SystemConfig::paper_default();
  AccessCostModel model(cfg);
  const BurstTrace t = two_burst_trace();
  PagePlacement fast(32, tier_index(0)), slow(32, tier_index(1));
  EXPECT_NEAR(t.time_under(model, fast), t.time_uniform(model, tier_index(0)),
              1e-6);
  EXPECT_NEAR(t.time_under(model, slow), t.time_uniform(model, tier_index(1)),
              1e-6);
  EXPECT_GT(t.time_under(model, slow), t.time_under(model, fast));
}

TEST(PageAccessCounts, MergeMaxIdempotent) {
  PageAccessCounts a(8, {{0, 1, 5}, {1, 7, 0}});
  const PageAccessCounts b(8, {{0, 1, 3}, {1, 1, 7}, {2, 6, 0}});
  a.merge_max(b);
  EXPECT_EQ(a.at(0), 5u);
  EXPECT_EQ(a.at(1), 7u);
  EXPECT_EQ(a.at(2), 0u);
  const PageAccessCounts before = a;
  a.merge_max(b);  // merging the same record again changes nothing
  EXPECT_EQ(a, before);
}

TEST(PageAccessCounts, TouchedPages) {
  const PageAccessCounts c(10, {{0, 3, 0}, {3, 1, 1}, {4, 3, 0}, {7, 1, 9},
                               {8, 2, 0}});
  EXPECT_EQ(c.touched_pages(), 2u);
  EXPECT_EQ(c.total_accesses(), 10u);
}

TEST(PageAccessCounts, RegionsCoalesceIntoMaximalRuns) {
  // Pages 2 and 3 arrive as two regions of the same count.
  const PageAccessCounts c(10, {{0, 2, 0}, {2, 1, 5}, {3, 1, 5}, {4, 3, 0},
                               {7, 1, 9}, {8, 2, 0}});
  const RegionList& runs = c.runs();
  EXPECT_TRUE(regions_cover_space(runs, 10));
  // 0-1 (0), 2-3 (5), 4-6 (0), 7 (9), 8-9 (0)
  ASSERT_EQ(runs.size(), 5u);
  EXPECT_EQ(runs[1], (Region{2, 2, 5}));
  EXPECT_EQ(c.at(3), 5u);
  EXPECT_EQ(c.at(9), 0u);
  EXPECT_EQ(PageAccessCounts(10).runs(), (RegionList{{0, 10, 0}}));
  EXPECT_TRUE(PageAccessCounts(0).runs().empty());
}

TEST(PageAccessCounts, ScaleRoundsEachRunDownAndCoalesces) {
  PageAccessCounts c(6, {{0, 2, 2}, {2, 2, 3}, {4, 2, 9}});
  c.scale(0.5);  // 2 -> 1 and 3 -> 1 tie; 9 -> 4
  EXPECT_EQ(c.runs(), (RegionList{{0, 4, 1}, {4, 2, 4}}));
  c.scale(16.0);
  EXPECT_EQ(c.runs(), (RegionList{{0, 4, 16}, {4, 2, 64}}));
}

TEST(Regions, MergeSimilarRespectsThreshold) {
  RegionList regions{{0, 2, 100}, {2, 2, 150}, {4, 2, 400}};
  const RegionList merged = merge_similar_regions(regions, 100);
  ASSERT_EQ(merged.size(), 2u);  // 100/150 merge (diff 50 < 100); 400 apart
  EXPECT_EQ(merged[0].page_count, 4u);
  EXPECT_EQ(merged[0].accesses, 125u);  // page-weighted mean
  EXPECT_TRUE(regions_cover_space(merged, 6));
}

TEST(Regions, MergeNeverMixesZeroWithNonzero) {
  RegionList regions{{0, 2, 0}, {2, 2, 50}};
  const RegionList merged = merge_similar_regions(regions, 100);
  ASSERT_EQ(merged.size(), 2u);  // 0 vs 50 differ by <100 but must not merge
}

TEST(Regions, MergeNonAdjacentNotMerged) {
  RegionList regions{{0, 2, 100}, {4, 2, 100}};  // gap at 2-3
  const RegionList merged = merge_similar_regions(regions, 100);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(Regions, ZeroNonzeroSplit) {
  RegionList regions{{0, 2, 0}, {2, 2, 5}, {4, 2, 0}};
  EXPECT_EQ(zero_access_regions(regions).size(), 2u);
  EXPECT_EQ(nonzero_access_regions(regions).size(), 1u);
  EXPECT_EQ(regions_total_pages(regions), 6u);
}

TEST(Regions, CoverSpaceRejectsGapsAndOverlap) {
  EXPECT_FALSE(regions_cover_space({{0, 2, 0}, {3, 2, 0}}, 5));   // gap
  EXPECT_FALSE(regions_cover_space({{0, 3, 0}, {2, 3, 0}}, 5));   // overlap
  EXPECT_FALSE(regions_cover_space({{0, 3, 0}}, 5));              // short
  EXPECT_FALSE(regions_cover_space({{0, 0, 5}, {0, 5, 0}}, 5));   // empty
  EXPECT_TRUE(regions_cover_space({{0, 3, 0}, {3, 2, 0}}, 5));
}

TEST(WorkingSet, UffdExactFirstTouch) {
  const BurstTrace t = two_burst_trace();
  const WorkingSet ws = uffd_working_set(t, 32);
  EXPECT_EQ(ws.size_pages(), 12u);
  EXPECT_TRUE(ws.contains(0));
  EXPECT_TRUE(ws.contains(19));
  EXPECT_FALSE(ws.contains(10));
  EXPECT_DOUBLE_EQ(ws.fraction(), 12.0 / 32.0);
}

TEST(WorkingSet, MincoreInflatedByReadahead) {
  const BurstTrace t = two_burst_trace();
  const WorkingSet uffd = uffd_working_set(t, 256);
  const WorkingSet mincore = mincore_working_set(t, 256, 32);
  EXPECT_GE(mincore.size_pages(), uffd.size_pages());
  // Every uffd page is also in the mincore set.
  EXPECT_EQ(mincore.missing_from(uffd), 0u);
  // Readahead pulled in pages beyond the true working set.
  EXPECT_GT(uffd.missing_from(mincore), 0u);
}

TEST(WorkingSet, MincoreMatchesAPerPageCacheSimulation) {
  // The mincore set against a per-page simulation of the page cache: each
  // burst page in order, a miss caching its readahead window, then every
  // cached page below the guest size. Random traces over guests that are
  // not a multiple of 64 pages, with bursts that cross words, overlap,
  // and end on the last guest page so readahead runs past it.
  Rng rng(5);
  for (const u64 readahead : {1u, 7u, 32u, 100u}) {
    for (int trial = 0; trial < 50; ++trial) {
      const u64 n = 1 + rng.next_below(700);
      std::vector<AccessBurst> bursts;
      for (u64 k = rng.next_below(6); k > 0; --k) {
        const u64 begin = rng.next_below(n);
        const u64 count = 1 + rng.next_below(n - begin);
        bursts.push_back({begin, count, 10, Pattern::kSequential, 0.0, 0.0});
      }
      if (trial % 2 == 0) {
        const u64 count = 1 + rng.next_below(n);
        bursts.push_back(
            {n - count, count, 10, Pattern::kRandom, 0.0, 0.0});
      }
      std::vector<bool> cached(n + readahead + 64, false);
      for (const AccessBurst& b : bursts)
        for (u64 p = b.page_begin; p < b.page_end(); ++p)
          if (!cached[p])
            for (u64 q = p; q < p + readahead; ++q) cached[q] = true;
      std::vector<std::pair<u64, u64>> want;
      for (u64 p = 0; p < n; ++p) {
        if (!cached[p]) continue;
        if (!want.empty() && want.back().first + want.back().second == p) {
          ++want.back().second;
        } else {
          want.emplace_back(p, 1);
        }
      }
      const WorkingSet ws =
          mincore_working_set(BurstTrace(bursts), n, readahead);
      ASSERT_EQ(ws.touched_ranges(), want)
          << "readahead " << readahead << " trial " << trial;
      ASSERT_EQ(ws.num_pages(), n);
    }
  }
}

TEST(WorkingSet, TouchedRanges) {
  WorkingSet ws(16);
  ws.insert(1, 1);
  ws.insert(2, 1);  // joins the range before it
  ws.insert(7, 1);
  const auto ranges = ws.touched_ranges();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (std::pair<u64, u64>{1, 2}));
  EXPECT_EQ(ranges[1], (std::pair<u64, u64>{7, 1}));
}

TEST(WorkingSet, MissingFrom) {
  WorkingSet a(8), b(8);
  a.insert(0, 1);
  b.insert(0, 1);
  b.insert(1, 2);
  EXPECT_EQ(a.missing_from(b), 2u);
  EXPECT_EQ(b.missing_from(a), 0u);
}

}  // namespace
}  // namespace toss
