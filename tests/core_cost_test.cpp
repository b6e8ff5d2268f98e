// Tests for the Equation 1 memory cost model and its N-rung ladder
// generalization, including a brute-force check of the optimizer's per-bin
// rung choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "core/cost.hpp"
#include "core/merge.hpp"
#include "core/optimizer.hpp"
#include "damon/monitor.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

TEST(Eq1, RawFormula) {
  // SDown * (MB_fast * Cost_fast + MB_slow * Cost_slow)
  EXPECT_DOUBLE_EQ(eq1_memory_cost(1.0, 100, 0, 2.5, 1.0), 250.0);
  EXPECT_DOUBLE_EQ(eq1_memory_cost(1.0, 0, 100, 2.5, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(eq1_memory_cost(1.2, 50, 50, 2.5, 1.0), 1.2 * 175.0);
}

TEST(Eq1, NormalizedEndpoints) {
  // All fast, no slowdown -> 1. All slow, no slowdown -> 1/ratio = 0.4.
  EXPECT_DOUBLE_EQ(normalized_memory_cost(1.0, 0.0, 2.5), 1.0);
  EXPECT_DOUBLE_EQ(normalized_memory_cost(1.0, 1.0, 2.5), 0.4);
  EXPECT_DOUBLE_EQ(optimal_normalized_cost(2.5), 0.4);
}

TEST(Eq1, MigrationReducesCostAtSameSlowdown) {
  // The paper's first property: moving MB from fast to slow at the same
  // slowdown lowers total cost.
  for (double f = 0.0; f < 1.0; f += 0.1) {
    EXPECT_GT(normalized_memory_cost(1.1, f, 2.5),
              normalized_memory_cost(1.1, f + 0.1, 2.5));
  }
}

TEST(Eq1, SlowdownRaisesCostAtSamePartitioning) {
  // Second property: same partitioning, more slowdown -> more cost.
  EXPECT_LT(normalized_memory_cost(1.0, 0.5, 2.5),
            normalized_memory_cost(1.3, 0.5, 2.5));
}

TEST(Eq1, WorstCaseNeverExceedsDramPlan) {
  // A function kept fully in DRAM costs exactly the single-tier plan.
  EXPECT_DOUBLE_EQ(normalized_memory_cost(1.0, 0.0, 2.5), 1.0);
}

TEST(Eq1, BreakEvenSlowdown) {
  // Fully offloaded, cost reaches 1 again at slowdown = ratio.
  EXPECT_NEAR(normalized_memory_cost(2.5, 1.0, 2.5), 1.0, 1e-12);
  EXPECT_LT(normalized_memory_cost(2.49, 1.0, 2.5), 1.0);
  EXPECT_GT(normalized_memory_cost(2.51, 1.0, 2.5), 1.0);
}

TEST(Eq1, BinRule) {
  // A bin with no slowdown always lowers cost; a huge slowdown never does.
  EXPECT_LT(bin_normalized_cost(0.0, 0.1, 2.5), 1.0);
  EXPECT_GT(bin_normalized_cost(0.5, 0.05, 2.5), 1.0);
  // Boundary: sd such that (1+sd)(1-0.6*fb) == 1.
  const double fb = 0.2;
  const double sd = 1.0 / (1.0 - 0.6 * fb) - 1.0;
  EXPECT_NEAR(bin_normalized_cost(sd, fb, 2.5), 1.0, 1e-12);
}

TEST(Eq1, DifferentCostRatios) {
  // TOSS supports any tier pair; check a CXL-ish 1.5 ratio too.
  EXPECT_NEAR(optimal_normalized_cost(1.5), 2.0 / 3.0, 1e-12);
  EXPECT_GT(normalized_memory_cost(1.0, 1.0, 1.5),
            normalized_memory_cost(1.0, 1.0, 2.5));
}

TEST(Ladder, TwoRungReducesBitIdentically) {
  // The degenerate two-tier ladder must evaluate the exact same
  // floating-point expression as the paper's normalized form — this is the
  // invariant the bit-identical default ledgers rest on.
  for (double sd : {1.0, 1.07, 1.3, 2.5}) {
    for (double frac : {0.0, 0.123456789, 0.5, 0.97, 1.0}) {
      for (double ratio : {1.5, 2.5, 4.0}) {
        EXPECT_EQ(ladder_normalized_cost(sd, {frac}, {ratio}),
                  normalized_memory_cost(sd, frac, ratio));
      }
    }
  }
}

TEST(Ladder, ThreeRungEndpointsAndMonotonicity) {
  // Nothing offloaded: cost = slowdown.
  EXPECT_DOUBLE_EQ(ladder_normalized_cost(1.0, {0.0, 0.0}, {1.8, 3.6}), 1.0);
  // Everything at the deepest rung: cost = slowdown / deepest ratio.
  EXPECT_DOUBLE_EQ(ladder_normalized_cost(1.0, {0.0, 1.0}, {1.8, 3.6}),
                   1.0 / 3.6);
  // Moving bytes one rung deeper at the same slowdown lowers cost.
  EXPECT_GT(ladder_normalized_cost(1.1, {0.5, 0.0}, {1.8, 3.6}),
            ladder_normalized_cost(1.1, {0.0, 0.5}, {1.8, 3.6}));
  // Slowdown scales the whole expression.
  EXPECT_GT(ladder_normalized_cost(1.3, {0.3, 0.3}, {1.8, 3.6}),
            ladder_normalized_cost(1.0, {0.3, 0.3}, {1.8, 3.6}));
}

// ---------------------------------------------------------------------------
// Brute-force enumeration: on a small input the optimizer's chosen per-bin
// rung assignment must be the minimum-cost configuration among everything
// the coldest-first descent sweep can reach.
// ---------------------------------------------------------------------------

class LadderSweepTest : public ::testing::Test {
 protected:
  PageAccessCounts unified_for(const FunctionModel& m) {
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input) {
      const Invocation inv = m.invoke(input, 900);
      unified.merge_max(
          PageAccessCounts::from_trace(inv.trace, m.guest_pages()));
    }
    unified.scale(DamonConfig{}.count_scale);
    return unified;
  }

  // Re-runs the descent sweep by hand and returns the placement of the
  // minimum-cost prefix (strict improvement, like the optimizer).
  PagePlacement brute_force_best(const SystemConfig& cfg,
                                 const std::vector<Bin>& bins,
                                 const RegionList& zeros, u64 guest_pages,
                                 const Invocation& rep) {
    const size_t ranks = cfg.tier_count();
    const std::vector<double> ratios = cfg.rank_cost_ratios();
    BinProfiler profiler(cfg);

    PagePlacement base(guest_pages, tier_index(0));
    for (const Region& r : zeros)
      base.set_range(r.page_begin, r.page_count, cfg.deepest_tier());
    const Nanos base_exec = profiler.warm_exec_ns(rep, base);

    std::vector<size_t> order(bins.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return bins[a].density() < bins[b].density();
    });

    PagePlacement best = base;
    double best_cost = ladder_normalized_cost(
        1.0, base.deep_fractions(ranks), ratios);
    PagePlacement current = base;
    for (size_t pass = 1; pass < ranks; ++pass) {
      for (size_t idx : order) {
        for (const Region& r : bins[idx].regions)
          current.set_range(r.page_begin, r.page_count, tier_index(pass));
        const Nanos exec = profiler.warm_exec_ns(rep, current);
        const double sd =
            base_exec > 0 ? std::max(0.0, exec / base_exec - 1.0) : 0.0;
        const double cost = ladder_normalized_cost(
            1.0 + sd, current.deep_fractions(ranks), ratios);
        if (cost < best_cost) {
          best_cost = cost;
          best = current;
        }
      }
    }
    return best;
  }

  void check_against_brute_force(const SystemConfig& cfg, const char* fn,
                                 int bin_count) {
    const FunctionRegistry reg = FunctionRegistry::table1();
    const FunctionModel& m = *reg.find(fn);
    const PageAccessCounts unified = unified_for(m);
    const RegionList merged = regionize_and_merge(unified);
    const RegionList zeros = zero_access_regions(merged);
    const auto bins =
        pack_equal_access(nonzero_access_regions(merged), bin_count);
    const Invocation rep = m.invoke(3, 900);

    TieringOptions opt;
    opt.bin_count = bin_count;
    const TieringDecision d = choose_placement(
        cfg, bins, zeros, m.guest_pages(), rep, opt);
    const PagePlacement want =
        brute_force_best(cfg, bins, zeros, m.guest_pages(), rep);
    EXPECT_EQ(d.placement, want) << fn << " on " << cfg.tier_count()
                                 << "-tier ladder";

    // Per-bin rung choice is monotone in access density: a colder bin never
    // sits on a faster rung than a hotter one.
    ASSERT_EQ(d.bin_rank.size(), bins.size());
    for (size_t a = 0; a < bins.size(); ++a) {
      for (size_t b = 0; b < bins.size(); ++b) {
        if (bins[a].density() < bins[b].density()) {
          EXPECT_GE(d.bin_rank[a], d.bin_rank[b])
              << "bin " << a << " colder than bin " << b;
        }
      }
    }
  }
};

TEST_F(LadderSweepTest, TwoTierChoiceMatchesBruteForce) {
  check_against_brute_force(SystemConfig::paper_default(), "matmul", 4);
}

TEST_F(LadderSweepTest, ThreeTierChoiceMatchesBruteForce) {
  check_against_brute_force(SystemConfig::cxl_host(), "matmul", 4);
  check_against_brute_force(SystemConfig::cxl_host(), "pagerank", 5);
}

TEST_F(LadderSweepTest, FourTierChoiceMatchesBruteForce) {
  check_against_brute_force(SystemConfig::nvme_host(), "compress", 3);
}

// Zero-access regions start at the deepest rung. A representative outside
// the unified pattern (another seed's allocation jitter) touches pages the
// pattern left at zero, and the sweep must charge those accesses at the
// deepest rung from its base configuration on, exactly as a replay of
// each prefix placement does.
TEST_F(LadderSweepTest, AccessesInZeroRegionsStartAtTheDeepestRung) {
  const FunctionRegistry reg = FunctionRegistry::table1();
  const SystemConfig cfg = SystemConfig::cxl_host();
  const BinProfiler profiler(cfg);
  u64 buried = 0;
  for (const FunctionModel& m : reg.models()) {
    SCOPED_TRACE(m.name());
    const RegionList merged = regionize_and_merge(unified_for(m));
    const RegionList zeros = zero_access_regions(merged);
    const std::vector<Bin> bins =
        pack_equal_access(nonzero_access_regions(merged), 10);
    const Invocation rep = m.invoke(3, 4242);
    const PageAccessCounts counts =
        PageAccessCounts::from_trace(rep.trace, m.guest_pages());
    for (const Region& r : zeros)
      for (u64 p = r.page_begin; p < r.page_end(); ++p) buried += counts.at(p);

    const BinProfile got = profiler.profile(bins, zeros, m.guest_pages(), rep);
    PagePlacement placement = got.base_placement;
    EXPECT_EQ(got.base_exec_ns, profiler.warm_exec_ns(rep, placement));
    for (const BinStep& s : got.steps) {
      for (const Region& r : bins[s.bin_index].regions)
        placement.set_range(r.page_begin, r.page_count, tier_index(s.to_rank));
      EXPECT_EQ(s.cumulative_slowdown,
                std::max(0.0, profiler.warm_exec_ns(rep, placement) /
                                      got.base_exec_ns -
                                  1.0));
    }
  }
  EXPECT_GT(buried, 0u);  // some representative does touch a zero region
}

// The one-pass sweep against its definition: materialise every descent
// prefix's placement and replay the representative trace under it. Each
// field must be the same double, not merely a close one, and so must the
// selection tail's figures, which are taken from the profile instead of a
// replay of the chosen placement.
TEST_F(LadderSweepTest, OnePassProfileMatchesPerPrefixReplay) {
  const FunctionRegistry reg = FunctionRegistry::table1();
  const SystemConfig ladders[] = {SystemConfig::paper_default(),
                                  SystemConfig::cxl_host(),
                                  SystemConfig::nvme_host()};
  for (const FunctionModel& m : reg.models()) {
    const PageAccessCounts unified = unified_for(m);
    const RegionList merged = regionize_and_merge(unified);
    const RegionList zeros = zero_access_regions(merged);
    const RegionList accessed = nonzero_access_regions(merged);
    const Invocation rep = m.invoke(3, 900);
    const double guest_bytes = static_cast<double>(m.guest_bytes());
    for (const SystemConfig& cfg : ladders) {
      const size_t ranks = cfg.tier_count();
      const std::vector<double> ratios = cfg.rank_cost_ratios();
      const BinProfiler profiler(cfg);
      for (int bin_count : {10, 3}) {
        SCOPED_TRACE(m.name() + " on a " + std::to_string(ranks) +
                     "-tier ladder, " + std::to_string(bin_count) + " bins");
        const std::vector<Bin> bins = pack_equal_access(accessed, bin_count);
        const BinProfile got =
            profiler.profile(bins, zeros, m.guest_pages(), rep);

        PagePlacement placement(m.guest_pages(), tier_index(0));
        for (const Region& r : zeros)
          placement.set_range(r.page_begin, r.page_count, cfg.deepest_tier());
        EXPECT_EQ(got.base_placement, placement);
        const Nanos base_exec = profiler.warm_exec_ns(rep, placement);
        ASSERT_GT(base_exec, 0);
        EXPECT_EQ(got.base_exec_ns, base_exec);

        std::vector<size_t> order(bins.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return bins[a].density() < bins[b].density();
        });
        ASSERT_EQ(got.steps.size(), order.size() * (ranks - 1));
        Nanos prev_exec = base_exec;
        size_t k = 0;
        for (size_t pass = 1; pass < ranks; ++pass) {
          for (size_t idx : order) {
            for (const Region& r : bins[idx].regions)
              placement.set_range(r.page_begin, r.page_count,
                                  tier_index(pass));
            const Nanos exec = profiler.warm_exec_ns(rep, placement);
            const double byte_fraction =
                static_cast<double>(bins[idx].bytes()) / guest_bytes;
            const double marginal =
                std::max(0.0, (exec - prev_exec) / base_exec);
            const double cumulative = std::max(0.0, exec / base_exec - 1.0);
            const BinStep& s = got.steps[k++];
            EXPECT_EQ(s.bin_index, idx);
            EXPECT_EQ(s.from_rank, pass - 1);
            EXPECT_EQ(s.to_rank, pass);
            EXPECT_EQ(s.byte_fraction, byte_fraction);
            EXPECT_EQ(s.marginal_slowdown, marginal);
            EXPECT_EQ(s.cumulative_slowdown, cumulative);
            EXPECT_EQ(s.slow_fraction, placement.slow_fraction());
            EXPECT_EQ(s.cumulative_cost,
                      ladder_normalized_cost(1.0 + cumulative,
                                             placement.deep_fractions(ranks),
                                             ratios));
            EXPECT_EQ(s.bin_cost, bin_normalized_cost(marginal, byte_fraction,
                                                      ratios[pass - 1]));
            prev_exec = exec;
          }
        }
        EXPECT_EQ(got.full_slow_exec_ns, prev_exec);

        for (size_t floor = 0; floor <= got.steps.size(); ++floor) {
          TieringOptions opt;
          opt.bin_count = bin_count;
          opt.min_descent_prefix = floor;
          const TieringDecision d = select_placement(cfg, got, bins, opt);
          const Nanos exec = profiler.warm_exec_ns(rep, d.placement);
          const double slowdown = std::max(0.0, exec / base_exec - 1.0);
          EXPECT_EQ(d.expected_slowdown, slowdown) << "floor " << floor;
          EXPECT_EQ(d.slow_fraction, d.placement.slow_fraction())
              << "floor " << floor;
          EXPECT_EQ(d.normalized_cost,
                    ladder_normalized_cost(1.0 + slowdown,
                                           d.placement.deep_fractions(ranks),
                                           ratios))
              << "floor " << floor;
        }
      }
    }
  }
}

}  // namespace
}  // namespace toss
