// Tests for the unified access pattern and its convergence rule, plus the
// region-merging helpers used by the analysis.
#include <gtest/gtest.h>

#include "core/merge.hpp"
#include "core/unified_pattern.hpp"

namespace toss {
namespace {

DamonRecord record_of(u64 pages, RegionList regions) {
  EXPECT_TRUE(regions_cover_space(regions, pages));
  return DamonRecord(pages, std::move(regions));
}

TEST(UnifiedPattern, IdenticalRecordsConverge) {
  UnifiedPattern up(100, 0.01);
  const DamonRecord rec = record_of(100, {{0, 50, 10}, {50, 50, 0}});
  EXPECT_TRUE(up.add_record(rec));  // first merge changes the empty pattern
  for (u64 i = 0; i < 10; ++i) EXPECT_FALSE(up.add_record(rec));
  EXPECT_EQ(up.stable_streak(), 10u);
  EXPECT_EQ(up.records_merged(), 11u);
}

TEST(UnifiedPattern, NewPatternResetsStreak) {
  UnifiedPattern up(100, 0.01);
  const DamonRecord a = record_of(100, {{0, 50, 10}, {50, 50, 0}});
  const DamonRecord b = record_of(100, {{0, 50, 10}, {50, 50, 40}});
  up.add_record(a);
  up.add_record(a);
  EXPECT_EQ(up.stable_streak(), 1u);
  EXPECT_TRUE(up.add_record(b));  // new hot region: change
  EXPECT_EQ(up.stable_streak(), 0u);
  EXPECT_FALSE(up.add_record(b));
  EXPECT_EQ(up.stable_streak(), 1u);
}

TEST(UnifiedPattern, MaxMergeKeepsPeak) {
  UnifiedPattern up(10, 0.01);
  up.add_record(record_of(10, {{0, 10, 100}}));
  up.add_record(record_of(10, {{0, 10, 40}}));  // weaker run
  EXPECT_EQ(up.counts().at(0), 100u);
}

TEST(UnifiedPattern, EpsilonAbsorbsNoise) {
  UnifiedPattern up(100, 0.10);
  up.add_record(record_of(100, {{0, 100, 1000}}));
  // 5% bump: below the 10% epsilon, counts update but streak continues.
  EXPECT_FALSE(up.add_record(record_of(100, {{0, 100, 1050}})));
  EXPECT_EQ(up.stable_streak(), 1u);
  // 50% bump: change.
  EXPECT_TRUE(up.add_record(record_of(100, {{0, 100, 1500}})));
}

TEST(UnifiedPattern, DistanceIsNormalizedByTheMergedTotal) {
  // 1000 -> 1800 on every page moves the pattern by 800 per page: 0.44 of
  // the merged total, under the 0.45 epsilon (0.8 of the old total).
  UnifiedPattern up(100, 0.45);
  up.add_record(record_of(100, {{0, 100, 1000}}));
  EXPECT_FALSE(up.add_record(record_of(100, {{0, 100, 1800}})));
  EXPECT_EQ(up.counts().at(0), 1800u);
}

TEST(UnifiedPattern, SmallerPatternsNeverChangeIt) {
  UnifiedPattern up(100, 0.01);
  up.add_record(record_of(100, {{0, 100, 500}}));
  for (u64 c : {400u, 100u, 0u})
    EXPECT_FALSE(up.add_record(record_of(100, {{0, 100, c}})));
  EXPECT_EQ(up.stable_streak(), 3u);
}

TEST(RegionizeAndMerge, CollapsesSimilarNeighbors) {
  RegionList pages;
  for (u64 p = 0; p < 50; ++p) pages.push_back({p, 1, 1000 + p});  // drifts
  pages.push_back({50, 50, 5000});
  const PageAccessCounts counts(100, pages);
  const RegionList merged = regionize_and_merge(counts, 100);
  EXPECT_TRUE(regions_cover_space(merged, 100));
  EXPECT_LE(merged.size(), 3u);
}

TEST(RegionizeAndMerge, KeepsDistinctPhases) {
  const PageAccessCounts counts(100, {{0, 50, 100}, {50, 50, 100000}});
  const RegionList merged = regionize_and_merge(counts, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].accesses, 100u);
}

}  // namespace
}  // namespace toss
