// Chaos suite for the fault-injection harness and the self-healing snapshot
// path (verify -> retry -> degrade -> regenerate).
//
// The central invariant is the page-version oracle: no matter which faults
// fire, every invocation that *completes* must observe exactly the guest
// memory the authoritative snapshot would materialize — recovery may cost
// time (retry backoff, a slower rung), never correctness. On top of that,
// the whole cascade must be deterministic: the same fault-plan seed yields
// bit-identical outcomes, ledgers and counters for any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "platform/engine.hpp"
#include "platform/request_gen.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 4;
  opt.max_profiling_invocations = 30;
  return opt;
}

/// Every snapshot-path failure domain armed at once, at rates low enough
/// that most invocations still reach the tiered path.
FaultPlan chaos_plan(u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set(FaultSite::kPutSingleTier, {.probability = 0.05});
  plan.set(FaultSite::kPutTiered, {.probability = 0.10});
  plan.set(FaultSite::kTierBitrot, {.probability = 0.04});
  plan.set(FaultSite::kTierTruncate, {.probability = 0.02});
  plan.set(FaultSite::kRestoreMapping, {.probability = 0.06});
  plan.set(FaultSite::kSlowTierStall,
           {.probability = 0.05, .delay_ns = ms(2)});
  plan.set(FaultSite::kExecCrash, {.probability = 0.03});
  return plan;
}

/// A fleet of TOSS lanes cycling the Table-I specs under `plan`.
std::unique_ptr<PlatformEngine> make_chaos_fleet(size_t n, size_t requests,
                                                 const FaultPlan& plan,
                                                 EngineOptions opts = {}) {
  opts.fault_plan = plan;
  auto engine = std::make_unique<PlatformEngine>(
      SystemConfig::paper_default(), PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < n; ++i) {
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    auto stream =
        RequestGenerator::round_robin(requests, mix_seed(321, spec.name));
    EXPECT_TRUE(engine
                    ->add(FunctionRegistration(std::move(spec))
                              .toss(fast_toss())
                              .seed(10 + i),
                          std::move(stream))
                    .ok());
  }
  return engine;
}

u64 ledger_weight(const RecoveryInfo& r) {
  return r.faults_seen + r.retries + static_cast<u64>(r.fallback) +
         (r.quarantined ? 1 : 0) + (r.regenerated ? 1 : 0) +
         (r.completed ? 0 : 1);
}

// An unarmed plan must leave no recovery trace (the acceptance criterion's
// "bit-identical" half is engine_test; this is the ledger half).
TEST(Chaos, FaultFreeRunHasCleanLedger) {
  auto engine = make_chaos_fleet(4, 24, FaultPlan{});
  const EngineReport report = engine->run(4).value();
  for (const FunctionReport& f : report.functions) {
    EXPECT_EQ(f.stats.recovered_faults, 0u) << f.name;
    EXPECT_EQ(f.stats.recovery_retries, 0u) << f.name;
    EXPECT_EQ(f.stats.fallbacks(), 0u) << f.name;
    EXPECT_EQ(f.stats.quarantines, 0u) << f.name;
    EXPECT_EQ(f.stats.regenerations, 0u) << f.name;
    EXPECT_EQ(f.stats.breaker_suspended, 0u) << f.name;
    EXPECT_EQ(f.stats.incomplete, 0u) << f.name;
    for (const InvocationOutcome& o : f.outcomes) {
      EXPECT_TRUE(o.recovery.completed) << f.name;
      EXPECT_TRUE(o.recovery.memory_ok()) << f.name;
      EXPECT_FALSE(o.recovery.engaged()) << f.name;
      EXPECT_EQ(o.recovery.overhead_ns, 0) << f.name;
    }
  }
}

// A fault-free run executes no snapshot-path probe: each one sits behind
// the store's injector, and only an armed plan attaches one. A plan whose
// sites all carry probability 0 and an empty schedule is unarmed, whatever
// its seed, fire cap or stall magnitude.
TEST(Chaos, OnlyAnArmedPlanAttachesAnInjector) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_EQ(ServerlessPlatform(cfg, {}, FaultPlan{}).store().faults(),
            nullptr);

  FaultPlan idle;
  idle.seed = 17;
  for (size_t i = 0; i < kFaultSiteCount; ++i)
    idle.set(static_cast<FaultSite>(i),
             {.probability = 0.0, .schedule = {}, .max_fires = 1,
              .delay_ns = ms(2)});
  EXPECT_FALSE(idle.armed());
  EXPECT_EQ(ServerlessPlatform(cfg, {}, idle).store().faults(), nullptr);

  FaultPlan armed = idle;
  armed.set(FaultSite::kExecCrash, {.schedule = {0}});
  EXPECT_TRUE(armed.armed());
  EXPECT_NE(ServerlessPlatform(cfg, {}, armed).store().faults(), nullptr);
}

// The oracle: across several seeds, with every site armed, no completed
// invocation ever observes wrong memory. Faults must actually bite (the
// plan is not vacuous) and the lanes stay serialized.
TEST(Chaos, OracleHoldsUnderFaultsAcrossSeeds) {
  for (const u64 seed : {u64{11}, u64{23}, u64{47}}) {
    auto engine = make_chaos_fleet(6, 40, chaos_plan(seed));
    const EngineReport report = engine->run(4).value();
    EXPECT_EQ(report.serialization_violations, 0u);

    u64 faults = 0, retries = 0, fallbacks = 0, wrong_memory = 0;
    for (const FunctionReport& f : report.functions) {
      EXPECT_EQ(f.stats.invocations, 40u) << f.name;
      faults += f.stats.recovered_faults;
      retries += f.stats.recovery_retries;
      fallbacks += f.stats.fallbacks();
      for (const InvocationOutcome& o : f.outcomes)
        if (o.recovery.completed && !o.recovery.memory_ok()) ++wrong_memory;
    }
    // Zero tolerance: a completed invocation with wrong memory is the one
    // outcome the ladder exists to prevent.
    EXPECT_EQ(wrong_memory, 0u) << "seed " << seed;
    EXPECT_GT(faults, 0u) << "seed " << seed << ": plan never fired";
    EXPECT_GT(retries + fallbacks, 0u) << "seed " << seed;
  }
}

// Determinism of the whole cascade: same seed => identical per-invocation
// ledgers, latencies and aggregate counters, for 1 worker vs 4 and across
// repeated runs.
TEST(Chaos, RecoveryIsDeterministicPerSeedAndThreadCount) {
  const FaultPlan plan = chaos_plan(99);
  auto serial = make_chaos_fleet(5, 32, plan);
  const EngineReport s = serial->run(1).value();
  auto parallel = make_chaos_fleet(5, 32, plan);
  const EngineReport p = parallel->run(4).value();
  auto again = make_chaos_fleet(5, 32, plan);
  const EngineReport r = again->run(4).value();

  // Every recovery ledger, latency, counter and histogram, bit for bit.
  EXPECT_TRUE(s == p);
  EXPECT_TRUE(s == r);
  u64 total_weight = 0;
  for (const FunctionReport& f : s.functions)
    for (const InvocationOutcome& o : f.outcomes)
      total_weight += ledger_weight(o.recovery);
  // The reproducible counters are non-zero — the determinism above is a
  // statement about real recovery activity, not about three idle runs.
  EXPECT_GT(total_weight, 0u);
}

/// Single-host harness for scheduled (non-probabilistic) scenarios.
struct ScheduledScenario {
  std::unique_ptr<ServerlessPlatform> host;
  std::string name;

  explicit ScheduledScenario(const FaultPlan& plan,
                             RetryPolicy retry = RetryPolicy{}) {
    host = std::make_unique<ServerlessPlatform>(
        SystemConfig::paper_default(), PricingPlan{}, plan);
    FunctionSpec spec = workloads::all_functions()[0];
    name = spec.name;
    EXPECT_TRUE(host->register_function(FunctionRegistration(std::move(spec))
                                            .toss(fast_toss())
                                            .retry(retry)
                                            .seed(5))
                    .ok());
  }

  std::vector<InvocationOutcome> drive(size_t n) {
    return host
        ->run(name, RequestGenerator::round_robin(n, 777))
        .value();
  }
};

// Bitrot on the first tiered read: verification must catch it before the
// mapping, quarantine the artifact, serve the invocation from the retained
// single-tier snapshot, and let Step V regenerate a fresh tiered artifact
// that subsequent invocations restore from cleanly.
TEST(Chaos, ChecksumFailureQuarantinesThenRegenerates) {
  FaultPlan plan;
  plan.seed = 3;
  plan.set(FaultSite::kTierBitrot, {.schedule = {0}});  // first tiered read
  ScheduledScenario sc(plan);
  const auto outcomes = sc.drive(60);

  size_t quarantine_at = outcomes.size(), regen_at = outcomes.size();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const RecoveryInfo& rec = outcomes[i].recovery;
    EXPECT_TRUE(rec.completed) << i;
    EXPECT_TRUE(rec.memory_ok()) << i;
    if (rec.quarantined && quarantine_at == outcomes.size())
      quarantine_at = i;
    if (rec.regenerated && regen_at == outcomes.size()) regen_at = i;
  }
  ASSERT_LT(quarantine_at, outcomes.size()) << "bitrot never quarantined";
  ASSERT_LT(regen_at, outcomes.size()) << "Step V never regenerated";
  EXPECT_LT(quarantine_at, regen_at);
  // The quarantined invocation degraded exactly one rung.
  EXPECT_EQ(outcomes[quarantine_at].recovery.fallback,
            FallbackLevel::kSingleTier);
  EXPECT_EQ(sc.host->store().quarantine_count(), 1u);
  // After regeneration the lane is back in steady tiered state.
  ASSERT_NE(sc.host->toss_state(sc.name), nullptr);
  EXPECT_EQ(sc.host->toss_state(sc.name)->phase(), TossPhase::kTiered);
  EXPECT_FALSE(sc.host->toss_state(sc.name)->regeneration_pending());
}

// Transient guest crashes burn retries, not correctness: the scheduled
// double crash completes on the third attempt with the backoff charged to
// simulated setup time.
TEST(Chaos, ExecCrashRetriesThenCompletes) {
  FaultPlan plan;
  plan.seed = 4;
  plan.set(FaultSite::kExecCrash, {.schedule = {0, 1}});
  ScheduledScenario sc(plan);
  const auto outcomes = sc.drive(3);
  const RecoveryInfo& first = outcomes[0].recovery;
  EXPECT_EQ(first.faults_seen, 2u);
  EXPECT_EQ(first.retries, 2u);
  EXPECT_TRUE(first.completed);
  EXPECT_TRUE(first.memory_ok());
  EXPECT_GT(first.overhead_ns, 0);
  // Later invocations are untouched.
  EXPECT_FALSE(outcomes[1].recovery.engaged());
  EXPECT_EQ(outcomes[1].recovery.overhead_ns, 0);
}

// Persistent restore failure: the breaker opens after the threshold and
// suspends the tiered path instead of hammering it; every invocation still
// completes (cold boot is the terminal rung) with correct memory.
TEST(Chaos, BreakerOpensUnderPersistentRestoreFailure) {
  FaultPlan plan;
  plan.seed = 5;
  plan.set(FaultSite::kRestoreMapping, {.probability = 1.0});
  ScheduledScenario sc(plan);
  const auto outcomes = sc.drive(40);

  u64 suspended = 0;
  for (const InvocationOutcome& o : outcomes) {
    EXPECT_TRUE(o.recovery.completed);
    EXPECT_TRUE(o.recovery.memory_ok());
    if (o.recovery.breaker_suspended) ++suspended;
  }
  EXPECT_GT(suspended, 0u);
  ASSERT_NE(sc.host->breaker(sc.name), nullptr);
  EXPECT_GT(sc.host->breaker(sc.name)->opened_count(), 0u);
}

// The recovery counters flow through to the metrics JSON the benches emit.
TEST(Chaos, MetricsJsonCarriesRecoveryCounters) {
  auto engine = make_chaos_fleet(2, 16, chaos_plan(7));
  const EngineReport report = engine->run(2).value();
  const std::string json = report.to_json();
  for (const char* key :
       {"\"recovery\":", "\"faults\":", "\"retries\":", "\"quarantines\":",
        "\"regenerations\":", "\"breaker_suspended\":", "\"incomplete\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
}

}  // namespace
}  // namespace toss
