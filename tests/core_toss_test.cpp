// Integration tests for the TOSS orchestrator: the full Step I-IV lifecycle
// of Figure 4 plus the re-generation path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/toss.hpp"
#include "platform/request_gen.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

TossOptions fast_options(u64 stable = 5) {
  TossOptions opt;
  opt.stable_invocations = stable;
  opt.max_profiling_invocations = 200;
  return opt;
}

class TossLifecycleTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  FunctionRegistry reg = FunctionRegistry::table1();
};

TEST_F(TossLifecycleTest, PhasesProgressInOrder) {
  const FunctionModel& m = *reg.find("pyaes");
  TossFunction toss(cfg, store, m, fast_options());
  EXPECT_EQ(toss.phase(), TossPhase::kInitial);

  const auto first = toss.handle(1, 1);
  EXPECT_EQ(first.phase, TossPhase::kInitial);
  EXPECT_TRUE(first.snapshot_created);
  EXPECT_EQ(toss.phase(), TossPhase::kProfiling);

  bool tiered = false;
  for (u64 i = 0; i < 100 && !tiered; ++i) {
    const auto rec = toss.handle(static_cast<int>(i % kNumInputs), 100 + i);
    EXPECT_EQ(rec.phase, TossPhase::kProfiling);
    tiered = rec.tiered_created;
  }
  ASSERT_TRUE(tiered);
  EXPECT_EQ(toss.phase(), TossPhase::kTiered);
  ASSERT_NE(toss.decision(), nullptr);
  ASSERT_NE(toss.tiered_snapshot(), nullptr);

  const auto prod = toss.handle(3, 999);
  EXPECT_EQ(prod.phase, TossPhase::kTiered);
}

TEST_F(TossLifecycleTest, RetierErasesTheSupersededArtifact) {
  const FunctionModel& m = *reg.find("json_load_dump");
  TossFunction toss(cfg, store, m, fast_options());
  toss.handle(3, 1);
  for (u64 i = 0; i < 100 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(static_cast<int>(i % kNumInputs), 200 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);

  const TieredSnapshot* first = toss.tiered_snapshot();
  ASSERT_NE(first, nullptr);
  const u64 first_fast = first->fast_file_id();
  const u64 first_slow = first->file_id(1);
  // Demote to the first demotion-curve point, then back to unconstrained.
  ASSERT_FALSE(toss.decision()->demotion_curve.empty());
  RetierBound demoted;
  demoted.min_descent_prefix = toss.decision()->demotion_curve.front().prefix;
  ASSERT_TRUE(toss.retier(demoted));
  const u64 second_fast = toss.tiered_snapshot()->fast_file_id();
  ASSERT_TRUE(toss.retier({}));
  const u64 current = toss.tiered_snapshot()->fast_file_id();

  // Each retier replaced a live artifact and erased it, rank aliases too;
  // none of them counts as quarantined.
  EXPECT_EQ(store.get_tiered(first_fast), nullptr);
  EXPECT_EQ(store.get_tiered(first_slow), nullptr);
  EXPECT_EQ(store.get_tiered(second_fast), nullptr);
  EXPECT_FALSE(store.is_quarantined(first_fast));
  EXPECT_EQ(store.quarantine_count(), 0u);
  EXPECT_TRUE(store.verify_tiered(current).ok());
  const auto rec = toss.handle(1, 5000);
  EXPECT_EQ(rec.phase, TossPhase::kTiered);
  EXPECT_EQ(rec.recovery.fallback, FallbackLevel::kNone);
  EXPECT_EQ(rec.recovery.memory_hash, rec.recovery.expected_hash);
}

// A retier re-picks from the last Step III's profile instead of re-running
// Step III. Its decision and artifact must equal what a fresh Step III at
// the same floor gives, at every demotion-curve point and back, and after
// a profiling re-entry the re-pick must follow the new Step III.
TEST_F(TossLifecycleTest, RetierRepicksWhatAFreshStepThreeWould) {
  const auto expect_fresh = [&](const TossFunction& toss, RetierBound bound) {
    SCOPED_TRACE(toss.model().name() + " at floor " +
                 std::to_string(bound.min_descent_prefix.value_or(0)));
    TieringOptions topt;
    topt.bin_count = toss.options().bin_count;
    topt.min_descent_prefix = bound.min_descent_prefix;
    const auto rep = toss.representative();
    ASSERT_TRUE(rep.has_value());
    const TieringDecision want =
        analyze_pattern(cfg, toss.unified()->counts(),
                        toss.model().invoke(rep->first, rep->second), topt);
    const TieringDecision& got = *toss.decision();
    EXPECT_EQ(got.profile.base_exec_ns, want.profile.base_exec_ns);
    EXPECT_EQ(got.placement, want.placement);
    EXPECT_EQ(got.chosen_prefix, want.chosen_prefix);
    EXPECT_EQ(got.demotion_curve, want.demotion_curve);
    EXPECT_EQ(got.bin_rank, want.bin_rank);
    EXPECT_EQ(got.expected_slowdown, want.expected_slowdown);
    EXPECT_EQ(got.normalized_cost, want.normalized_cost);
    EXPECT_EQ(got.slow_fraction, want.slow_fraction);
    PagePlacement layout(toss.model().guest_pages());
    for (const LayoutEntry& e : toss.tiered_snapshot()->layout().entries())
      layout.set_range(e.guest_page, e.page_count, e.tier);
    EXPECT_EQ(layout, got.placement);
  };
  // Retier to every point of the unconstrained curve, then back.
  const auto walk_curve = [&](TossFunction& toss) {
    expect_fresh(toss, {});
    const std::vector<CostCurvePoint> curve = toss.decision()->demotion_curve;
    for (const CostCurvePoint& point : curve) {
      RetierBound bound;
      bound.min_descent_prefix = point.prefix;
      ASSERT_TRUE(toss.retier(bound));
      expect_fresh(toss, bound);
    }
    ASSERT_TRUE(toss.retier({}));
    expect_fresh(toss, {});
  };

  for (const FunctionModel& m : reg.models()) {
    // Profile on the smallest input only, so that the re-entry below, on
    // the largest, changes the representative and with it Step III.
    TossFunction toss(cfg, store, m, fast_options());
    toss.handle(0, 1);
    for (u64 i = 0; i < 100 && toss.phase() != TossPhase::kTiered; ++i)
      toss.handle(0, 600 + i);
    ASSERT_EQ(toss.phase(), TossPhase::kTiered) << m.name();
    walk_curve(toss);
    const Nanos old_base = toss.decision()->profile.base_exec_ns;

    // A damaged artifact is quarantined and the lane re-profiles.
    ASSERT_TRUE(
        store.corrupt_tiered_page(toss.tiered_snapshot()->fast_file_id(), 0));
    toss.handle(3, 700);
    ASSERT_EQ(toss.phase(), TossPhase::kProfiling) << m.name();
    for (u64 i = 0; i < 100 && toss.phase() != TossPhase::kTiered; ++i)
      toss.handle(3, 800 + i);
    ASSERT_EQ(toss.phase(), TossPhase::kTiered) << m.name();
    ASSERT_NE(toss.decision()->profile.base_exec_ns, old_base) << m.name();
    walk_curve(toss);
  }
}

TEST_F(TossLifecycleTest, TieredSnapshotPreservesMemoryImage) {
  const FunctionModel& m = *reg.find("json_load_dump");
  TossFunction toss(cfg, store, m, fast_options());
  toss.handle(3, 1);
  for (u64 i = 0; i < 100 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(static_cast<int>(i % kNumInputs), 200 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);

  const TieredSnapshot* tiered = toss.tiered_snapshot();
  ASSERT_NE(tiered, nullptr);
  EXPECT_EQ(validate_layout(tiered->layout()), std::nullopt);
  // Integrity: the partitioned image reassembles to the single-tier one.
  // (The single-tier snapshot is the first file the store handed out.)
  const SingleTierSnapshot* single = store.get_single_tier(1);
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(tiered->materialize(), single->materialize());
}

TEST_F(TossLifecycleTest, LayoutMatchesDecisionPlacement) {
  const FunctionModel& m = *reg.find("linpack");
  TossFunction toss(cfg, store, m, fast_options());
  toss.handle(3, 1);
  for (u64 i = 0; i < 100 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(3, 300 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);
  const auto* d = toss.decision();
  const auto* tiered = toss.tiered_snapshot();
  ASSERT_NE(d, nullptr);
  ASSERT_NE(tiered, nullptr);
  EXPECT_NEAR(tiered->layout().slow_fraction(), d->slow_fraction, 1e-9);
}

TEST_F(TossLifecycleTest, TieredSetupConstantAndSmall) {
  const FunctionModel& m = *reg.find("lr_training");  // 1 GiB guest
  TossFunction toss(cfg, store, m, fast_options());
  toss.handle(3, 1);
  for (u64 i = 0; i < 100 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(3, 400 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);

  // TOSS never eager-loads: setup is mmap-bound, far below any eager load
  // of a 1 GiB snapshot (~400 ms at disk bandwidth).
  std::vector<Nanos> setups;
  for (u64 i = 0; i < 5; ++i) {
    const auto rec = toss.handle(3, 500 + i);
    EXPECT_EQ(rec.result.setup.eager_pages, 0u);
    setups.push_back(rec.result.setup.setup_ns);
  }
  for (Nanos s : setups) {
    EXPECT_LT(s, ms(20));
    EXPECT_NEAR(s, setups[0], 1.0);  // constant across invocations
  }
}

TEST_F(TossLifecycleTest, RepresentativeIsLongestProfiledInvocation) {
  const FunctionModel& m = *reg.find("compress");
  TossFunction toss(cfg, store, m, fast_options(3));
  toss.handle(0, 1);
  // Feed one big input among small ones; largest must win.
  toss.handle(3, 2);
  for (u64 i = 0; i < 60 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(0, 10 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);
  ASSERT_TRUE(toss.representative().has_value());
  EXPECT_EQ(toss.representative()->first, 3);
}

TEST_F(TossLifecycleTest, ProfilingAddsDamonOverhead) {
  const FunctionModel& m = *reg.find("pyaes");
  TossFunction toss(cfg, store, m, fast_options(50));
  toss.handle(1, 1);
  const auto rec = toss.handle(1, 2);
  EXPECT_EQ(rec.phase, TossPhase::kProfiling);
  EXPECT_GT(rec.result.exec.profiling_overhead_ns, 0);
  EXPECT_GT(toss.profiled_invocations(), 0u);
}

TEST_F(TossLifecycleTest, MaxProfilingInvocationsForcesAnalysis) {
  TossOptions opt;
  opt.stable_invocations = 1000000;  // unreachable
  opt.max_profiling_invocations = 10;
  const FunctionModel& m = *reg.find("pyaes");
  TossFunction toss(cfg, store, m, opt);
  toss.handle(0, 1);
  for (u64 i = 0; i < 10; ++i) toss.handle(static_cast<int>(i % 4), 20 + i);
  EXPECT_EQ(toss.phase(), TossPhase::kTiered);
}

TEST_F(TossLifecycleTest, SlowdownThresholdFlowsThrough) {
  const FunctionModel& m = *reg.find("pagerank");
  TossOptions opt = fast_options(3);
  opt.slowdown_threshold = 0.02;
  TossFunction toss(cfg, store, m, opt);
  toss.handle(3, 1);
  for (u64 i = 0; i < 60 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(3, 30 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);
  EXPECT_LE(toss.decision()->expected_slowdown, 0.05);
}

TEST_F(TossLifecycleTest, ReprofileTriggersOnSustainedDrift) {
  // Profile only on the smallest input with a permissive budget, then hit
  // the function with the largest input repeatedly: Eq 3 accelerates until
  // Eq 4 flips and the function re-enters profiling.
  const FunctionModel& m = *reg.find("matmul");
  TossOptions opt = fast_options(3);
  opt.reprofile_budget = 0.01;
  TossFunction toss(cfg, store, m, opt);
  toss.handle(0, 1);
  for (u64 i = 0; i < 60 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(0, 50 + i);
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);

  bool reprofiled = false;
  for (u64 i = 0; i < 200 && !reprofiled; ++i)
    reprofiled = toss.handle(3, 1000 + i).reprofile_triggered;
  EXPECT_TRUE(reprofiled);
  EXPECT_EQ(toss.phase(), TossPhase::kProfiling);
}

TEST_F(TossLifecycleTest, DeterministicAcrossRuns) {
  const FunctionModel& m = *reg.find("float_operation");
  // Each run owns a fresh store, so the second starts from no artifacts.
  auto run = [&] {
    SnapshotStore own_store(cfg);
    TossFunction toss(cfg, own_store, m, fast_options());
    std::vector<double> times;
    const auto reqs = RequestGenerator::round_robin(40, 7);
    for (const auto& r : reqs)
      times.push_back(toss.handle(r.input, r.seed).result.total_ns());
    return times;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace toss
