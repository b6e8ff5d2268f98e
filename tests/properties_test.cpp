// Property-based sweeps over the whole Table-I suite: system invariants
// that must hold for every function, input and seed.
#include <gtest/gtest.h>

#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"
#include "core/optimizer.hpp"
#include "core/tierer.hpp"
#include "damon/monitor.hpp"
#include "platform/invoker.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

struct Case {
  int function;
  int input;
};

class SuiteProperty : public ::testing::TestWithParam<Case> {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  Invoker invoker{cfg, store};
  FunctionRegistry reg = FunctionRegistry::table1();

  const FunctionModel& model() {
    return reg.models()[static_cast<size_t>(GetParam().function)];
  }
  int input() { return GetParam().input; }
};

TEST_P(SuiteProperty, TieredSnapshotRoundTripsForAnyPlacement) {
  const FunctionModel& m = model();
  const Invocation inv = m.invoke(input(), 31);
  const u64 snap_id = invoker.initial_execution(m, inv);
  const SingleTierSnapshot* snap = store.get_single_tier(snap_id);

  // Derive a placement from the invocation's own pattern (hot half fast).
  const PageAccessCounts counts =
      PageAccessCounts::from_trace(inv.trace, m.guest_pages());
  PagePlacement placement(m.guest_pages(), tier_index(1));
  for (const Region& r : counts.runs())
    if (r.accesses > 20) placement.set_range(r.page_begin, r.page_count,
                                             tier_index(0));

  const u64 tiered_id = tier_snapshot(store, *snap, placement);
  const TieredSnapshot* tiered = store.get_tiered(tiered_id);
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(validate_layout(tiered->layout()), std::nullopt);
  EXPECT_EQ(tiered->materialize(), snap->materialize());
  EXPECT_NEAR(tiered->layout().slow_fraction(), placement.slow_fraction(),
              1e-9);
}

TEST_P(SuiteProperty, WorkingSetContainsEveryTouchedPage) {
  const FunctionModel& m = model();
  const Invocation inv = m.invoke(input(), 33);
  const WorkingSet ws = uffd_working_set(inv.trace, m.guest_pages());
  EXPECT_EQ(ws.size_pages(), inv.trace.footprint_pages(m.guest_pages()));
}

TEST_P(SuiteProperty, DamonRecordCoversGuestAndPreservesZeroes) {
  const FunctionModel& m = model();
  const Invocation inv = m.invoke(input(), 35);
  const PageAccessCounts counts =
      PageAccessCounts::from_trace(inv.trace, m.guest_pages());
  Rng rng(99);
  const DamonOutput out =
      DamonMonitor().monitor(counts, ms(50), rng);
  ASSERT_TRUE(regions_cover_space(out.record.regions(), m.guest_pages()));
  EXPECT_EQ(out.record.num_pages(), m.guest_pages());
  const PageAccessCounts est = out.record.to_counts();
  u64 disagree = 0;
  for (u64 p = 0; p < m.guest_pages(); ++p)
    if ((est.at(p) == 0) != (counts.at(p) == 0)) ++disagree;
  // The touched/untouched boundary may blur only at region granularity.
  EXPECT_LT(disagree,
            m.guest_pages() / 50 + 16 * DamonConfig().min_region_pages);
}

TEST_P(SuiteProperty, VanillaInvocationTimingSane) {
  const FunctionModel& m = model();
  const Invocation inv = m.invoke(input(), 37);
  const u64 snap_id = invoker.initial_execution(m, inv);
  VanillaPolicy policy(store, snap_id);
  const Invocation run = m.invoke(input(), 38);
  const InvocationResult r = invoker.invoke(policy, run);
  // Cold lazy restore must fault in exactly the touched pages.
  EXPECT_EQ(r.exec.minor_faults + r.exec.major_faults, r.exec.touched_pages);
  EXPECT_GT(r.exec.exec_ns, run.cpu_ns);
  EXPECT_GE(r.exec.exec_ns, r.exec.mem_ns + r.exec.cpu_ns);
  EXPECT_GT(r.setup.setup_ns, 0);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (int f = 0; f < 10; ++f)
    for (int i = 0; i < 4; ++i) cases.push_back(Case{f, i});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctionInputPairs, SuiteProperty, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      return FunctionRegistry::table1()
                 .models()[static_cast<size_t>(info.param.function)]
                 .name() +
             "_input" + std::to_string(info.param.input + 1);
    });

class TossDecisionProperty : public ::testing::TestWithParam<int> {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  FunctionRegistry reg = FunctionRegistry::table1();
};

TEST_P(TossDecisionProperty, DecisionInvariants) {
  const FunctionModel& m =
      reg.models()[static_cast<size_t>(GetParam())];
  PageAccessCounts unified(m.guest_pages());
  for (int input = 0; input < kNumInputs; ++input)
    unified.merge_max(PageAccessCounts::from_trace(
        m.invoke(input, 900 + static_cast<u64>(input)).trace,
        m.guest_pages()));
  unified.scale(DamonConfig{}.count_scale);

  const TieringDecision d =
      analyze_pattern(cfg, unified, m.invoke(3, 903), {});

  // Normalized cost within [optimal, DRAM-only].
  EXPECT_GE(d.normalized_cost, optimal_normalized_cost(cfg.cost_ratio()) - 1e-9);
  EXPECT_LE(d.normalized_cost, 1.0 + 1e-9);
  // Fractions are fractions.
  EXPECT_GE(d.slow_fraction, 0.0);
  EXPECT_LE(d.slow_fraction, 1.0);
  EXPECT_GE(d.expected_slowdown, 0.0);
  // Zero-access pages are always offloaded: slow fraction at least the
  // untouched share.
  const double untouched =
      1.0 - static_cast<double>(unified.touched_pages()) /
                static_cast<double>(unified.num_pages());
  EXPECT_GE(d.slow_fraction, untouched - 0.02);
  // Cost consistency with the formula.
  EXPECT_NEAR(d.normalized_cost,
              normalized_memory_cost(1.0 + d.expected_slowdown,
                                     d.slow_fraction, cfg.cost_ratio()),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllTen, TossDecisionProperty, ::testing::Range(0, 10),
                         [](const auto& info) {
                           return FunctionRegistry::table1()
                               .models()[static_cast<size_t>(info.param)]
                               .name();
                         });

}  // namespace
}  // namespace toss
