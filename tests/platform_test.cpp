// Tests for the platform layer: pricing, request generation, the invoker,
// the concurrency contention model and the end-to-end ServerlessPlatform.
#include <gtest/gtest.h>

#include "platform/concurrency.hpp"
#include "platform/platform.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

TEST(Pricing, BundleRounding) {
  PricingPlan plan;
  EXPECT_EQ(plan.bundle_mb(0), 128u);
  EXPECT_EQ(plan.bundle_mb(1), 128u);
  EXPECT_EQ(plan.bundle_mb(128), 128u);
  EXPECT_EQ(plan.bundle_mb(129), 256u);
  EXPECT_EQ(plan.bundle_mb(1000), 1024u);
}

TEST(Pricing, TieredNeverExceedsDramForSameDuration) {
  PricingPlan plan;
  const double dram = plan.dram_invocation_cost(1024, 100);
  for (u64 slow : {0ull, 256ull, 512ull, 1024ull}) {
    EXPECT_LE(plan.tiered_invocation_cost(1024 - slow, slow, 100),
              dram + 1e-12);
  }
}

TEST(Pricing, FullySlowCostsRatioLess) {
  PricingPlan plan;
  const double dram = plan.dram_invocation_cost(1024, 100);
  const double slow = plan.tiered_invocation_cost(0, 1024, 100);
  EXPECT_NEAR(slow / dram, 1.0 / plan.cost_ratio, 1e-9);
}

TEST(Pricing, SavingFractionAccountsForSlowdown) {
  PricingPlan plan;
  // 100% offloaded with no slowdown: saving = 1 - 1/2.5 = 0.6.
  EXPECT_NEAR(plan.saving_fraction(0, 1024, 100, 100), 0.6, 1e-9);
  // Slowdown eats into the saving.
  EXPECT_LT(plan.saving_fraction(0, 1024, 150, 100), 0.6);
  // Break-even at slowdown == cost ratio.
  EXPECT_NEAR(plan.saving_fraction(0, 1024, 250, 100), 0.0, 1e-9);
}

TEST(RequestGen, DeterministicAndBounded) {
  const auto a = RequestGenerator::uniform(100, 42);
  const auto b = RequestGenerator::uniform(100, 42);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].input, b[i].input);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_GE(a[i].input, 0);
    EXPECT_LT(a[i].input, kNumInputs);
  }
}

TEST(RequestGen, FixedAndRoundRobin) {
  for (const auto& r : RequestGenerator::fixed(20, 2, 1))
    EXPECT_EQ(r.input, 2);
  const auto rr = RequestGenerator::round_robin(8, 1);
  for (size_t i = 0; i < rr.size(); ++i)
    EXPECT_EQ(rr[i].input, static_cast<int>(i % kNumInputs));
}

TEST(RequestGen, WeightedHitsHeavyInput) {
  const auto reqs = RequestGenerator::weighted(1000, {0, 0, 0, 1}, 3);
  for (const auto& r : reqs) EXPECT_EQ(r.input, 3);
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();

  SoloRun memory_bound_solo(double slow_gb, Nanos exec) {
    SoloRun r;
    r.exec.exec_ns = exec;
    r.exec.cpu_ns = exec * 0.2;
    r.demand.tier_ns[1] = exec * 0.8;
    r.exec.mem_ns = r.demand.tier_ns[1];
    r.demand.tier_read_bytes[1] = slow_gb * 1e9;
    return r;
  }
};

TEST_F(ConcurrencyTest, SingleInvocationUncontended) {
  const auto out = run_concurrent(cfg, {memory_bound_solo(2.0, ms(100))});
  EXPECT_NEAR(out.exec_ns[0], ms(100), ms(1));
  EXPECT_DOUBLE_EQ(out.factors.disk, 1.0);
}

TEST_F(ConcurrencyTest, ContentionGrowsWithConcurrency) {
  Nanos prev = 0;
  for (size_t k : {1, 5, 10, 20}) {
    std::vector<SoloRun> solo(k, memory_bound_solo(40.0, ms(100)));
    const auto out = run_concurrent(cfg, solo);
    EXPECT_GE(out.exec_ns[0], prev);
    prev = out.exec_ns[0];
  }
  EXPECT_GT(prev, ms(100) * 1.5);  // 20x 400 GB/s demand on a 26 GB/s tier
}

TEST_F(ConcurrencyTest, CpuBoundScalesFreely) {
  SoloRun r;
  r.exec.exec_ns = ms(100);
  r.exec.cpu_ns = ms(100);
  std::vector<SoloRun> solo(20, r);
  const auto out = run_concurrent(cfg, solo);
  for (Nanos t : out.exec_ns) EXPECT_NEAR(t, ms(100), 1.0);
}

TEST_F(ConcurrencyTest, DiskContentionScalesMajorFaults) {
  SoloRun r;
  r.exec.exec_ns = ms(100);
  r.exec.cpu_ns = ms(10);
  r.exec.disk_ns = ms(90);
  r.exec.fault_ns = ms(90);
  r.exec.disk_pages = 50000;  // 500k IOPS demand over 100 ms
  std::vector<SoloRun> solo(20, r);
  const auto out = run_concurrent(cfg, solo);
  EXPECT_GT(out.factors.disk, 2.0);
  EXPECT_GT(out.exec_ns[0], ms(150));
}

class PlatformTest : public ::testing::Test {
 protected:
  static TossOptions fast_toss() {
    TossOptions opt;
    opt.stable_invocations = 5;
    return opt;
  }
};

TEST_F(PlatformTest, EndToEndTossLifecycle) {
  ServerlessPlatform platform;
  ASSERT_TRUE(platform
                  .register_function(FunctionRegistration(workloads::pyaes())
                                         .policy(PolicyKind::kToss)
                                         .toss(fast_toss()))
                  .ok());
  const auto reqs = RequestGenerator::round_robin(150, 11);
  const auto outcomes = platform.run("pyaes", reqs).value();
  ASSERT_EQ(outcomes.size(), 150u);
  EXPECT_TRUE(outcomes.front().cold_boot);
  EXPECT_EQ(outcomes.back().toss_phase, TossPhase::kTiered);
  EXPECT_EQ(platform.stats("pyaes").invocations, 150u);
  EXPECT_GT(platform.stats("pyaes").total_charge, 0.0);
  ASSERT_NE(platform.toss_state("pyaes"), nullptr);
  EXPECT_EQ(platform.toss_state("pyaes")->phase(), TossPhase::kTiered);
}

TEST_F(PlatformTest, TieredChargeBelowDramCharge) {
  ServerlessPlatform platform;
  platform
      .register_function(FunctionRegistration(workloads::compress())
                             .policy(PolicyKind::kToss)
                             .toss(fast_toss()))
      .value();
  platform.run("compress", RequestGenerator::fixed(40, 3, 5)).value();
  ASSERT_EQ(platform.toss_state("compress")->phase(), TossPhase::kTiered);

  const auto tiered = platform.invoke("compress", 3, 777).value();
  const double dram_equiv = platform.pricing().dram_invocation_cost(
      256, to_ms(tiered.result.total_ns()));
  EXPECT_LT(tiered.charge, dram_equiv);
}

TEST_F(PlatformTest, BaselinePoliciesWork) {
  ServerlessPlatform platform;
  for (auto [spec, kind] :
       {std::pair{workloads::json_load_dump(), PolicyKind::kVanilla},
        std::pair{workloads::pyaes(), PolicyKind::kReap},
        std::pair{workloads::linpack(), PolicyKind::kFaasnap}}) {
    ASSERT_TRUE(
        platform.register_function(FunctionRegistration(spec).policy(kind))
            .ok());
  }

  for (const char* name : {"json_load_dump", "pyaes", "linpack"}) {
    const auto first = platform.invoke(name, 1, 1).value();
    EXPECT_TRUE(first.cold_boot) << name;
    const auto second = platform.invoke(name, 1, 2).value();
    EXPECT_FALSE(second.cold_boot) << name;
    EXPECT_GT(second.result.total_ns(), 0) << name;
  }
}

TEST_F(PlatformTest, ReapEagerLoadsOnSecondInvocation) {
  ServerlessPlatform platform;
  platform.register_function(
      FunctionRegistration(workloads::pyaes()).policy(PolicyKind::kReap))
      .value();
  platform.invoke("pyaes", 1, 1).value();
  const auto second = platform.invoke("pyaes", 1, 2).value();
  EXPECT_GT(second.result.setup.eager_pages, 0u);
}

TEST_F(PlatformTest, UnknownFunctionIsTypedError) {
  ServerlessPlatform platform;
  const auto out = platform.invoke("ghost", 0, 0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.code(), ErrorCode::kUnknownFunction);
  // value() on an error rethrows it as the typed exception, never as a raw
  // std::out_of_range from some internal container.
  try {
    platform.invoke("ghost", 0, 0).value();
    FAIL() << "expected toss::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownFunction);
  }
  EXPECT_THROW(platform.stats("ghost"), Error);
  EXPECT_EQ(platform.toss_state("ghost"), nullptr);
}

TEST_F(PlatformTest, InvalidInputIsTypedError) {
  ServerlessPlatform platform;
  platform.register_function(
      FunctionRegistration(workloads::pyaes()).policy(PolicyKind::kVanilla))
      .value();
  const auto out = platform.invoke("pyaes", kNumInputs, 0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.code(), ErrorCode::kInvalidRequest);
}

TEST_F(PlatformTest, RegistrationValidatesOptions) {
  ServerlessPlatform platform;

  TossOptions bad_bins = fast_toss();
  bad_bins.bin_count = 0;
  auto r = platform.register_function(FunctionRegistration(workloads::pyaes())
                                          .policy(PolicyKind::kToss)
                                          .toss(bad_bins));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidOptions);

  TossOptions bad_window = fast_toss();
  bad_window.stable_invocations = 100;
  bad_window.max_profiling_invocations = 10;
  r = platform.register_function(FunctionRegistration(workloads::pyaes())
                                     .policy(PolicyKind::kToss)
                                     .toss(bad_window));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidOptions);

  FunctionSpec nameless = workloads::pyaes();
  nameless.name.clear();
  EXPECT_FALSE(platform.register_function(FunctionRegistration(nameless)).ok());

  // A failed registration leaves no trace; the valid one still works.
  EXPECT_TRUE(platform
                  .register_function(FunctionRegistration(workloads::pyaes())
                                         .policy(PolicyKind::kToss)
                                         .toss(fast_toss()))
                  .ok());
  const auto dup = platform.register_function(
      FunctionRegistration(workloads::pyaes()).policy(PolicyKind::kToss));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), ErrorCode::kDuplicateFunction);
}

}  // namespace
}  // namespace toss
