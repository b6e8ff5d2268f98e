// Tests for the DAMON simulator: records and the adaptive monitor.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

#include "damon/monitor.hpp"
#include "damon/record.hpp"

namespace toss {
namespace {

TEST(DamonRecord, ToCounts) {
  DamonRecord rec(6, {{0, 2, 5}, {2, 4, 9}});
  const PageAccessCounts counts = rec.to_counts();
  EXPECT_EQ(counts.at(0), 5u);
  EXPECT_EQ(counts.at(1), 5u);
  EXPECT_EQ(counts.at(5), 9u);
}

class DamonMonitorTest : public ::testing::Test {
 protected:
  DamonConfig cfg;
  Rng rng{42};

  PageAccessCounts pattern_with_hot_region(u64 pages) {
    return PageAccessCounts(pages, {{0, 100, 0},
                                    {100, 200, 50},
                                    {300, 700, 0},
                                    {1000, 20, 2000},
                                    {1020, pages - 1020, 0}});
  }
};

TEST_F(DamonMonitorTest, RecordCoversSpaceAndQuantized) {
  DamonMonitor monitor(cfg);
  const auto counts = pattern_with_hot_region(4096);
  const DamonOutput out = monitor.monitor(counts, ms(100), rng);
  EXPECT_TRUE(regions_cover_space(out.record.regions(), 4096));
  for (const auto& r : out.record.regions()) {
    // Regions never smaller than the 16 KiB minimum (except trailing).
    if (r.page_end() != 4096) {
      EXPECT_GE(r.page_count, cfg.min_region_pages);
    }
  }
}

TEST_F(DamonMonitorTest, ZeroRegionsStayZero) {
  DamonMonitor monitor(cfg);
  const auto counts = pattern_with_hot_region(4096);
  const DamonOutput out = monitor.monitor(counts, ms(100), rng);
  const PageAccessCounts est = out.record.to_counts();
  // Untouched pages must be reported untouched (the zero/nonzero boundary
  // is TOSS's most important signal).
  for (u64 p = 0; p < 96; ++p) EXPECT_EQ(est.at(p), 0u);
  for (u64 p = 2000; p < 4096; ++p) ASSERT_EQ(est.at(p), 0u) << p;
}

TEST_F(DamonMonitorTest, EstimatesScaledTrueCounts) {
  DamonMonitor monitor(cfg);
  const auto counts = pattern_with_hot_region(4096);
  const DamonOutput out = monitor.monitor(counts, sec(1), rng);
  const PageAccessCounts est = out.record.to_counts();
  // Hot region estimate within 50% of scaled truth (generous: sampling).
  const double want = 2000 * cfg.count_scale;
  const double got = static_cast<double>(est.at(1010));
  EXPECT_GT(got, want * 0.5);
  EXPECT_LT(got, want * 1.5);
}

TEST_F(DamonMonitorTest, LongerRunsLessNoise) {
  DamonMonitor monitor(cfg);
  const auto counts = pattern_with_hot_region(4096);
  const double want = 50 * cfg.count_scale;
  auto mean_err = [&](Nanos exec) {
    double err = 0;
    int n = 0;
    Rng local(7);
    for (int i = 0; i < 20; ++i) {
      const auto out = monitor.monitor(counts, exec, local);
      const auto est = out.record.to_counts();
      err += std::abs(static_cast<double>(est.at(150)) - want) / want;
      ++n;
    }
    return err / n;
  };
  EXPECT_LE(mean_err(sec(1)), mean_err(us(50)) + 0.02);
}

TEST_F(DamonMonitorTest, MaxRegionsCapRespected) {
  DamonConfig small = cfg;
  small.max_regions = 8;
  DamonMonitor monitor(small);
  // Highly fragmented pattern: alternating intensities.
  RegionList pages;
  Rng local(3);
  for (u64 p = 0; p < 1024; ++p)
    pages.push_back(Region{p, 1, 1 + local.next_below(1000)});
  const PageAccessCounts counts(1024, pages);
  const auto out = monitor.monitor(counts, ms(10), rng);
  EXPECT_LE(out.record.region_count(), 8u);
  EXPECT_TRUE(regions_cover_space(out.record.regions(), 1024));
}

TEST_F(DamonMonitorTest, OverheadNearThreePercent) {
  DamonMonitor monitor(cfg);
  const auto counts = pattern_with_hot_region(32768);
  const auto out = monitor.monitor(counts, ms(200), rng);
  const double frac = out.overhead_ns / ms(200);
  EXPECT_GT(frac, 0.005);
  EXPECT_LT(frac, 0.08);
}

TEST_F(DamonMonitorTest, SamplesScaleWithExecTime) {
  DamonMonitor monitor(cfg);
  const auto counts = pattern_with_hot_region(1024);
  const auto a = monitor.monitor(counts, us(100), rng);
  const auto b = monitor.monitor(counts, ms(10), rng);
  EXPECT_EQ(a.samples, 10u);     // 100us / 10us
  EXPECT_EQ(b.samples, 1000u);
}

TEST_F(DamonMonitorTest, SimilarNeighborsMerged) {
  DamonMonitor monitor(cfg);
  // One flat plateau: should collapse into very few regions.
  const PageAccessCounts counts(4096, {{0, 4096, 100}});
  const auto out = monitor.monitor(counts, sec(1), rng);
  EXPECT_LT(out.record.region_count(), 200u);  // far fewer than 1024 chunks
}

TEST_F(DamonMonitorTest, NoiseIsOneDrawPerNonzeroRegion) {
  // The regions are built from the exact means first; then the stream
  // advances by exactly one jitter per nonzero output region, in address
  // order. Checked against a copy of the generator advanced that many
  // times, on plateaus, the hot-region pattern, a fragmented pattern
  // under the region cap, and small estimates that noise must not zero.
  DamonConfig capped = cfg;
  capped.max_regions = 8;
  DamonConfig small_scale = cfg;
  small_scale.count_scale = 0.5;
  RegionList fragmented, small;
  Rng local(3);
  for (u64 p = 0; p < 1024; ++p) {
    fragmented.push_back(Region{p, 1, 1 + local.next_below(1000)});
    small.push_back(Region{p, 1, p % 97 == 0 ? 0 : 1 + local.next_below(6)});
  }
  struct Case {
    DamonConfig cfg;
    PageAccessCounts counts;
  };
  const Case cases[] = {
      {cfg, PageAccessCounts(4096, {{0, 4096, 100}})},
      {cfg, PageAccessCounts(4096, {{0, 4096, 0}})},
      {cfg, pattern_with_hot_region(4096)},
      {cfg, PageAccessCounts(1024, fragmented)},
      {capped, PageAccessCounts(1024, fragmented)},
      {small_scale, PageAccessCounts(1024, small)},
  };
  for (size_t c = 0; c < std::size(cases); ++c) {
    for (const Nanos exec : {us(50), ms(10), sec(1)}) {
      SCOPED_TRACE("case " + std::to_string(c) + " exec " +
                   std::to_string(exec));
      Rng drawn(11 + c), advanced(11 + c);
      const DamonOutput out =
          DamonMonitor(cases[c].cfg).monitor(cases[c].counts, exec, drawn);
      u64 nonzero = 0;
      for (const Region& r : out.record.regions()) nonzero += r.accesses > 0;
      const double rel = std::min(
          4.0 / std::sqrt(static_cast<double>(out.samples)), 0.5);
      for (u64 i = 0; i < nonzero; ++i) advanced.jitter(rel);
      EXPECT_EQ(drawn.next(), advanced.next());
      EXPECT_LE(out.record.region_count(), cases[c].cfg.max_regions);
    }
  }
  // A plateau is one region whatever the noise: its quanta's exact means
  // are equal, so they coalesce before any draw.
  const DamonOutput flat = DamonMonitor(cfg).monitor(
      PageAccessCounts(4096, {{0, 4096, 100}}), sec(1), rng);
  EXPECT_EQ(flat.record.region_count(), 1u);
}

}  // namespace
}  // namespace toss
