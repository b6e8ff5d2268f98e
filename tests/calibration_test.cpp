// Calibration guards: pin the evaluation's headline shapes so a workload
// or cost-model change that silently breaks the reproduction fails CI.
// Ranges are deliberately generous around the paper's reported values
// (Table II, Figs 2/5) — they assert the shape, not the exact number.
#include <gtest/gtest.h>

#include "core/merge.hpp"
#include "util/stats.hpp"
#include "core/optimizer.hpp"
#include "damon/monitor.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

struct Expectation {
  const char* name;
  double slow_min, slow_max;     ///< Table II slow-tier share bounds
  double slowdown_max;           ///< Fig 5 slowdown upper bound
  double full_slow_min, full_slow_max;  ///< Fig 2 @ input IV bounds
};

// Paper anchors: Table II percentages, Fig 5 slowdowns (<= 25.6%), Fig 2
// shapes (compress negligible ... pagerank worst).
const Expectation kExpectations[] = {
    {"float_operation", 0.90, 1.00, 0.15, 1.02, 1.25},
    {"pyaes", 0.90, 1.00, 0.15, 1.02, 1.20},
    {"json_load_dump", 0.90, 1.00, 0.15, 1.02, 1.20},
    {"compress", 0.95, 1.00, 0.08, 1.00, 1.10},
    {"linpack", 0.88, 1.00, 0.15, 1.05, 1.30},
    {"matmul", 0.80, 0.97, 0.15, 1.25, 1.70},
    {"image_processing", 0.90, 1.00, 0.30, 1.10, 1.40},
    {"pagerank", 0.30, 0.65, 0.35, 1.90, 2.80},
    {"lr_serving", 0.85, 1.00, 0.20, 1.12, 1.45},
    {"lr_training", 0.95, 1.00, 0.10, 1.00, 1.12},
};

class CalibrationTest : public ::testing::TestWithParam<Expectation> {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  FunctionRegistry reg = FunctionRegistry::table1();

  TieringDecision decide(const FunctionModel& m) {
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input)
      for (u64 rep = 0; rep < 3; ++rep)
        unified.merge_max(PageAccessCounts::from_trace(
            m.invoke(input, 4000 + rep).trace, m.guest_pages()));
    unified.scale(DamonConfig{}.count_scale);
    return analyze_pattern(cfg, unified, m.invoke(3, 4003), {});
  }
};

TEST_P(CalibrationTest, TableTwoSlowShareInRange) {
  const Expectation& e = GetParam();
  const TieringDecision d = decide(*reg.find(e.name));
  EXPECT_GE(d.slow_fraction, e.slow_min) << e.name;
  EXPECT_LE(d.slow_fraction, e.slow_max) << e.name;
}

TEST_P(CalibrationTest, FigFiveSlowdownBounded) {
  const Expectation& e = GetParam();
  const TieringDecision d = decide(*reg.find(e.name));
  EXPECT_LE(d.expected_slowdown, e.slowdown_max) << e.name;
  // Cost never exceeds DRAM-only, never beats the optimum.
  EXPECT_LE(d.normalized_cost, 1.0) << e.name;
  EXPECT_GE(d.normalized_cost, 0.4 - 1e-9) << e.name;
}

TEST_P(CalibrationTest, FigTwoFullSlowInRange) {
  const Expectation& e = GetParam();
  const FunctionModel& m = *reg.find(e.name);
  AccessCostModel model(cfg);
  OnlineStats sd;
  for (int it = 0; it < 10; ++it) {
    const Invocation inv = m.invoke(3, 4100 + static_cast<u64>(it));
    const Nanos fast = inv.cpu_ns + inv.trace.time_uniform(model, tier_index(0));
    const Nanos slow = inv.cpu_ns + inv.trace.time_uniform(model, tier_index(1));
    sd.add(slow / fast);
  }
  EXPECT_GE(sd.mean(), e.full_slow_min) << e.name;
  EXPECT_LE(sd.mean(), e.full_slow_max) << e.name;
}

INSTANTIATE_TEST_SUITE_P(AllTen, CalibrationTest,
                         ::testing::ValuesIn(kExpectations),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(CalibrationAggregate, AverageOffloadNearPaper) {
  // Paper: 92% average offload.
  SystemConfig cfg = SystemConfig::paper_default();
  FunctionRegistry reg = FunctionRegistry::table1();
  OnlineStats offload;
  for (const Expectation& e : kExpectations) {
    const FunctionModel& m = *reg.find(e.name);
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input)
      unified.merge_max(PageAccessCounts::from_trace(
          m.invoke(input, 4200).trace, m.guest_pages()));
    unified.scale(DamonConfig{}.count_scale);
    offload.add(
        analyze_pattern(cfg, unified, m.invoke(3, 4201), {}).slow_fraction);
  }
  EXPECT_GT(offload.mean(), 0.85);
  EXPECT_LT(offload.mean(), 0.99);
}

TEST(CalibrationAggregate, AverageCostNearPaper) {
  // Paper: average normalized cost ~0.48 (range 0.40-0.87).
  SystemConfig cfg = SystemConfig::paper_default();
  FunctionRegistry reg = FunctionRegistry::table1();
  OnlineStats cost;
  for (const Expectation& e : kExpectations) {
    const FunctionModel& m = *reg.find(e.name);
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input)
      unified.merge_max(PageAccessCounts::from_trace(
          m.invoke(input, 4300).trace, m.guest_pages()));
    unified.scale(DamonConfig{}.count_scale);
    cost.add(
        analyze_pattern(cfg, unified, m.invoke(3, 4301), {}).normalized_cost);
  }
  EXPECT_GT(cost.mean(), 0.42);
  EXPECT_LT(cost.mean(), 0.56);
  EXPECT_LT(cost.max(), 0.95);  // pagerank stays below DRAM-only
}

}  // namespace
}  // namespace toss
