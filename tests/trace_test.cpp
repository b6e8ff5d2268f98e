// Tests for src/trace: burst traces, page access counts, regions and the
// working-set trackers.
#include <gtest/gtest.h>

#include "trace/burst.hpp"
#include "trace/pattern.hpp"
#include "trace/region.hpp"
#include "trace/working_set.hpp"

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

TEST(BurstTrace, AccumulateCounts) {
  const BurstTrace t = two_burst_trace();
  PageAccessCounts counts(32);
  t.accumulate_counts(counts);
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
  PageAccessCounts a(8), b(8);
  a.set(0, 5);
  b.set(0, 3);
  b.set(1, 7);
  a.merge_max(b);
  EXPECT_EQ(a.at(0), 5u);
  EXPECT_EQ(a.at(1), 7u);
  const PageAccessCounts before = a;
  a.merge_max(b);  // merging the same record again changes nothing
  EXPECT_EQ(a, before);
}

TEST(PageAccessCounts, MergeSumAdds) {
  PageAccessCounts a(4), b(4);
  a.set(2, 5);
  b.set(2, 3);
  a.merge_sum(b);
  EXPECT_EQ(a.at(2), 8u);
}

TEST(PageAccessCounts, NormalizedDistance) {
  PageAccessCounts a(4), b(4);
  a.set(0, 100);
  b.set(0, 100);
  EXPECT_DOUBLE_EQ(a.normalized_distance(b), 0.0);
  b.set(1, 50);
  EXPECT_DOUBLE_EQ(a.normalized_distance(b), 0.5);
}

TEST(PageAccessCounts, TouchedPages) {
  PageAccessCounts c(10);
  c.set(3, 1);
  c.set(7, 9);
  EXPECT_EQ(c.touched_pages(), 2u);
  EXPECT_EQ(c.total_accesses(), 10u);
}

TEST(Regions, FromCountsCoversSpace) {
  PageAccessCounts c(10);
  c.set(2, 5);
  c.set(3, 5);
  c.set(7, 9);
  const RegionList regions = regions_from_counts(c);
  EXPECT_TRUE(regions_cover_space(regions, 10));
  // 0-1 (0), 2-3 (5), 4-6 (0), 7 (9), 8-9 (0)
  ASSERT_EQ(regions.size(), 5u);
  EXPECT_EQ(regions[1].page_begin, 2u);
  EXPECT_EQ(regions[1].page_count, 2u);
  EXPECT_EQ(regions[1].accesses, 5u);
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

TEST(WorkingSet, TouchedRanges) {
  WorkingSet ws(16);
  ws.insert(1);
  ws.insert(2);
  ws.insert(7);
  const auto ranges = ws.touched_ranges();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], (std::pair<u64, u64>{1, 2}));
  EXPECT_EQ(ranges[1], (std::pair<u64, u64>{7, 1}));
}

TEST(WorkingSet, MissingFrom) {
  WorkingSet a(8), b(8);
  a.insert(0);
  b.insert(0);
  b.insert(1);
  b.insert(2);
  EXPECT_EQ(a.missing_from(b), 2u);
  EXPECT_EQ(b.missing_from(a), 0u);
}

}  // namespace
}  // namespace toss
