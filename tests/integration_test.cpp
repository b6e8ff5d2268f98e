// Cross-module integration tests: end-to-end flows that combine the
// platform, TOSS lifecycle, baselines, keep-alive and the concurrency
// model — the same compositions the bench harness measures, asserted as
// invariants.
#include <gtest/gtest.h>

#include "baseline/reap.hpp"
#include "core/tierer.hpp"
#include "platform/concurrency.hpp"
#include "platform/keepalive.hpp"
#include "platform/platform.hpp"
#include "platform/prewarm.hpp"
#include "workloads/functions.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

TossOptions fast_toss(u64 stable = 8) {
  TossOptions opt;
  opt.stable_invocations = stable;
  return opt;
}

TEST(Integration, MixedPolicyPlatform) {
  // All four policies coexist on one host and share the snapshot store.
  ServerlessPlatform platform;
  platform
      .register_function(FunctionRegistration(workloads::pyaes())
                             .policy(PolicyKind::kToss)
                             .toss(fast_toss()))
      .value();
  platform
      .register_function(
          FunctionRegistration(workloads::compress()).policy(PolicyKind::kReap))
      .value();
  platform
      .register_function(FunctionRegistration(workloads::linpack())
                             .policy(PolicyKind::kFaasnap))
      .value();
  platform
      .register_function(FunctionRegistration(workloads::json_load_dump())
                             .policy(PolicyKind::kVanilla))
      .value();
  Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    for (const char* name :
         {"pyaes", "compress", "linpack", "json_load_dump"}) {
      const auto out =
          platform.invoke(name, round % kNumInputs, rng.next()).value();
      EXPECT_GT(out.result.total_ns(), 0) << name;
      EXPECT_GT(out.charge, 0.0) << name;
    }
  }
  for (const char* name :
       {"pyaes", "compress", "linpack", "json_load_dump"})
    EXPECT_EQ(platform.stats(name).invocations, 30u) << name;
}

TEST(Integration, TossSetupBeatsReapForLargeFunctions) {
  // The Fig 7 headline as an invariant: once tiered, TOSS's setup is far
  // below REAP's eager prefetch for a large-footprint function.
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  FunctionRegistry reg = FunctionRegistry::table1();
  const FunctionModel& m = *reg.find("lr_training");

  TossFunction toss(cfg, store, m, fast_toss());
  Rng rng(7);
  toss.handle(3, rng.next());
  for (int i = 0; i < 200 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(i % kNumInputs, rng.next());
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);
  store.drop_caches();
  const Nanos toss_setup = toss.handle(3, 999).result.setup.setup_ns;

  const Invocation first = m.invoke(3, 1234);
  Invoker invoker(cfg, store);
  const u64 snap_id = invoker.initial_execution(m, first);
  ReapPolicy reap(store, snap_id,
                  uffd_working_set(first.trace, m.guest_pages()));
  store.drop_caches();
  MicroVm vm(cfg, store);
  const Nanos reap_setup = vm.restore(reap.plan_restore()).setup_ns;

  EXPECT_GT(reap_setup, toss_setup * 10);
}

TEST(Integration, TieredExecutionNeverTouchesDisk) {
  // TOSS's tiered snapshot is resident in both tiers: executions take
  // minor faults only, never a disk read — even with a cold page cache.
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  FunctionRegistry reg = FunctionRegistry::table1();
  const FunctionModel& m = *reg.find("matmul");
  TossFunction toss(cfg, store, m, fast_toss());
  Rng rng(9);
  for (int i = 0; i < 200 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(i % kNumInputs, rng.next());
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);
  for (int input = 0; input < kNumInputs; ++input) {
    const auto rec = toss.handle(input, rng.next());
    EXPECT_EQ(rec.result.exec.major_faults, 0u);
    EXPECT_EQ(rec.result.exec.disk_pages, 0u);
  }
}

TEST(Integration, ConcurrencyOrderingMatchesFig9) {
  // At 20-way concurrency: REAP with a mismatched snapshot must be the
  // slowest, TOSS in between, and DRAM-warm the fastest.
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  FunctionRegistry reg = FunctionRegistry::table1();
  const FunctionModel& m = *reg.find("image_processing");
  Invoker invoker(cfg, store);

  TossFunction toss(cfg, store, m, fast_toss());
  Rng rng(11);
  for (int i = 0; i < 200 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(i % kNumInputs, rng.next());
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);

  const Invocation inv = m.invoke(3, 777);
  // Solo executions per system, each from a dropped cache.
  auto solo_run = [&](const RestorePolicy& policy) {
    store.drop_caches();
    MicroVm vm(cfg, store);
    vm.restore(policy.plan_restore());
    const ExecutionResult exec = vm.execute(inv.trace, inv.cpu_ns);
    return SoloRun{exec, vm.demand()};
  };
  const SoloRun toss_solo = solo_run(
      TossPolicy(store, toss.tiered_snapshot()->fast_file_id()));

  const Invocation first_small = m.invoke(0, 778);
  const u64 snap_id = invoker.initial_execution(m, first_small);
  const SoloRun reap_solo = solo_run(ReapPolicy(
      store, snap_id,
      uffd_working_set(first_small.trace, m.guest_pages())));

  MicroVm warm_vm(cfg, store);
  warm_vm.boot(m.guest_bytes(), VmState{});
  warm_vm.execute(inv.trace, inv.cpu_ns);
  const ExecutionResult warm = warm_vm.execute(inv.trace, inv.cpu_ns);
  const SoloRun dram_solo{warm, warm_vm.demand()};

  auto at20 = [&](const SoloRun& solo) {
    const std::vector<SoloRun> group(20, solo);
    return run_concurrent(cfg, group).exec_ns[0];
  };
  const Nanos dram20 = at20(dram_solo);
  const Nanos toss20 = at20(toss_solo);
  const Nanos reap20 = at20(reap_solo);
  EXPECT_GT(toss20, dram20);
  EXPECT_GT(reap20, toss20);
}

TEST(Integration, KeepAlivePlusTossLifecycle) {
  // Keep-alive on top of TOSS: a warm hit skips setup entirely; eviction
  // falls back to the (cheap) tiered cold start.
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  FunctionRegistry reg = FunctionRegistry::table1();
  const FunctionModel& m = *reg.find("pyaes");
  TossFunction toss(cfg, store, m, fast_toss());
  Rng rng(13);
  for (int i = 0; i < 200 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(i % kNumInputs, rng.next());
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);

  KeepAliveConfig kcfg;
  kcfg.dram_capacity_bytes = 64 * kMiB;
  KeepAliveCache cache(kcfg);
  const TieringDecision& d = *toss.decision();
  const u64 fast_bytes = static_cast<u64>(
      (1.0 - d.slow_fraction) * static_cast<double>(m.guest_bytes()));
  // pyaes pins only a few MiB of DRAM when tiered: it fits a tiny pool.
  EXPECT_LT(fast_bytes, kcfg.dram_capacity_bytes);
  EXPECT_TRUE(cache.insert(m.name(), fast_bytes,
                           m.guest_bytes() - fast_bytes, ms(50)));
  EXPECT_TRUE(cache.lookup(m.name()));
}

TEST(Integration, PrewarmHidesTieredSetup) {
  // Periodic traffic + the arrival predictor: the TOSS restore cost is
  // fully hidden once the predictor locks on.
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store(cfg);
  FunctionRegistry reg = FunctionRegistry::table1();
  const FunctionModel& m = *reg.find("json_load_dump");
  TossFunction toss(cfg, store, m, fast_toss());
  Rng rng(17);
  for (int i = 0; i < 200 && toss.phase() != TossPhase::kTiered; ++i)
    toss.handle(i % kNumInputs, rng.next());
  ASSERT_EQ(toss.phase(), TossPhase::kTiered);
  const Nanos setup = toss.handle(1, 42).result.setup.setup_ns;

  ArrivalPredictor predictor;
  Nanos now = 0;
  for (int i = 0; i < 8; ++i) predictor.observe(now += sec(30));
  ASSERT_TRUE(predictor.prewarm_at().has_value());
  const Nanos arrival = now + sec(30);
  EXPECT_DOUBLE_EQ(visible_setup_ns(arrival, predictor.prewarm_at(), setup),
                   0.0);
}

TEST(Integration, WholeSuiteConvergesUnderUniformTraffic) {
  // Every Table-I function reaches the tiered phase under uniform random
  // inputs within a bounded number of requests.
  SystemConfig cfg = SystemConfig::paper_default();
  FunctionRegistry reg = FunctionRegistry::table1();
  for (const FunctionModel& m : reg.models()) {
    SnapshotStore store(cfg);
    TossOptions opt = fast_toss(6);
    opt.max_profiling_invocations = 300;
    TossFunction toss(cfg, store, m, opt);
    Rng rng(mix_seed(21, m.name()));
    int used = 0;
    for (; used < 320 && toss.phase() != TossPhase::kTiered; ++used)
      toss.handle(static_cast<int>(rng.next_below(kNumInputs)), rng.next());
    EXPECT_EQ(toss.phase(), TossPhase::kTiered) << m.name();
    EXPECT_LE(used, 310) << m.name();
  }
}

}  // namespace
}  // namespace toss
