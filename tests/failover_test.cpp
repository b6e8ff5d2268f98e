// Tests for the cluster failure domains (DESIGN.md §13): host-crash
// failover onto survivors, no-survivor abandonment with typed kHostLost
// outcomes, transactional migration (abort -> retry -> commit, and
// exhaustion keeping the source authoritative), brownout quarantine with
// hysteresis readmission, and chaos-grade ledger determinism across
// thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "platform/cluster.hpp"
#include "platform/engine.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 4;
  opt.max_profiling_invocations = 30;
  return opt;
}

// ---------------------------------------------------------------------------
// Vocabulary and the fault-free baseline (no plan armed).
// ---------------------------------------------------------------------------

TEST(FailureDomains, NamesAreStable) {
  EXPECT_STREQ(migration_outcome_name(MigrationOutcome::kCommitted),
               "committed");
  EXPECT_STREQ(migration_outcome_name(MigrationOutcome::kAborted), "aborted");
  EXPECT_STREQ(host_health_action_name(HostHealthAction::kBrownout),
               "brownout");
  EXPECT_STREQ(host_health_action_name(HostHealthAction::kQuarantine),
               "quarantine");
  EXPECT_STREQ(host_health_action_name(HostHealthAction::kProbe), "probe");
  EXPECT_STREQ(host_health_action_name(HostHealthAction::kReadmit),
               "readmit");
  EXPECT_STREQ(host_health_action_name(HostHealthAction::kCrash), "crash");
  EXPECT_STREQ(error_code_name(ErrorCode::kHostLost), "host_lost");
  EXPECT_STREQ(shed_cause_name(ShedCause::kHostLost), "host_lost");
}

TEST(FailureDomains, FaultFreeClusterReportsNoFailureActivity) {
  // A plan-free cluster must report zero failure-domain activity and keep
  // the failure-domain ledger fields at their defaults.
  ClusterOptions opts;
  opts.hosts = 2;
  ClusterEngine cluster(opts);
  for (size_t i = 0; i < 2; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    ASSERT_TRUE(cluster
                    .add(FunctionRegistration(std::move(spec))
                             .policy(PolicyKind::kVanilla)
                             .seed(5 + i),
                         RequestGenerator::round_robin(3, 7))
                    .ok());
  }
  const ClusterReport report = cluster.run(2).value();
  EXPECT_EQ(report.hosts_lost, 0u);
  EXPECT_TRUE(report.failovers.empty());
  EXPECT_TRUE(report.health_events.empty());
  for (size_t h = 0; h < 2; ++h) {
    EXPECT_FALSE(cluster.host_dead(h));
    EXPECT_FALSE(cluster.host_quarantined(h));
  }
  for (const MigrationEvent& m : report.migrations) {
    EXPECT_EQ(m.outcome, MigrationOutcome::kCommitted);
    EXPECT_EQ(m.attempts, 1u);
    EXPECT_EQ(m.retry_backoff_ns, 0);
  }
}

// ---------------------------------------------------------------------------
// Scenarios under an armed cluster fault plan.
// ---------------------------------------------------------------------------

/// Small crash-prone fleet: `lanes` vanilla clones over `hosts` hosts, each
/// with a short stream, under the given cluster fault plan.
std::unique_ptr<ClusterEngine> crash_fleet(size_t hosts, size_t lanes,
                                           size_t requests,
                                           const FaultPlan& plan) {
  ClusterOptions opts;
  opts.hosts = hosts;
  opts.cluster_fault_plan = plan;
  opts.host_options.chunk = 2;
  auto cluster = std::make_unique<ClusterEngine>(opts);
  for (size_t i = 0; i < lanes; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    EXPECT_TRUE(cluster
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kVanilla)
                              .seed(100 + i),
                          RequestGenerator::round_robin(requests, 50 + i))
                    .ok());
  }
  return cluster;
}

/// Sum of the per-lane overload ledgers across every host.
struct Accounting {
  u64 offered = 0, completed = 0, shed = 0, shed_host_lost = 0;
};

Accounting account(const ClusterReport& report) {
  Accounting a;
  for (const ClusterHostReport& host : report.hosts) {
    for (const FunctionReport& f : host.report.functions) {
      a.offered += f.overload.offered;
      a.completed += f.overload.completed;
      a.shed += f.overload.total_shed();
      a.shed_host_lost += f.overload.shed_by(ShedCause::kHostLost);
    }
  }
  return a;
}

TEST(FailureDomains, CrashFailsOverLanesOntoSurvivors) {
  // Probability-armed crashes: each host draws from an independent
  // (seed, host-name) stream, so sweep seeds for the single-crash case
  // (every candidate run is fully deterministic; the sweep is just seed
  // curation in code instead of in a comment).
  constexpr size_t kLanes = 6, kRequests = 8;
  bool found = false;
  for (u64 seed = 1; seed <= 64 && !found; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.set(FaultSite::kHostCrash, {.probability = 0.05, .max_fires = 1});
    auto cluster = crash_fleet(3, kLanes, kRequests, plan);
    const ClusterReport report = cluster->run(2).value();
    if (report.hosts_lost != 1) continue;
    found = true;

    // Exactly one host died; find it and check the governance ledger.
    size_t dead = ClusterEngine::npos;
    for (size_t h = 0; h < 3; ++h)
      if (cluster->host_dead(h)) dead = h;
    ASSERT_NE(dead, ClusterEngine::npos);
    const std::string dead_name = cluster->host_at(dead).name();
    bool crash_logged = false;
    for (const HostHealthEvent& e : report.health_events)
      crash_logged = crash_logged || (e.action == HostHealthAction::kCrash &&
                                      e.host == dead_name);
    EXPECT_TRUE(crash_logged);

    // Every lane the dead host owned was re-placed onto a survivor and
    // charged a restore; nothing points at the dead host afterwards.
    EXPECT_FALSE(report.failovers.empty());
    for (const FailoverEvent& f : report.failovers) {
      EXPECT_EQ(f.from_host, dead_name);
      EXPECT_FALSE(f.to_host.empty());
      EXPECT_NE(f.to_host, dead_name);
    }
    for (size_t i = 0; i < kLanes; ++i) {
      const std::string fn =
          workloads::all_functions()[0].name + "#" + std::to_string(i);
      EXPECT_NE(cluster->host_of(fn), dead);
    }

    // Exactly-once: every offered request completed or was shed with a
    // typed cause; with two live survivors nothing needed shedding.
    const Accounting a = account(report);
    EXPECT_EQ(a.offered, kLanes * kRequests);
    EXPECT_EQ(a.completed + a.shed, a.offered);
    EXPECT_EQ(report.total_invocations() + a.shed, kLanes * kRequests);
  }
  ASSERT_TRUE(found) << "no seed in [1,64] produced exactly one crash";
}

TEST(FailureDomains, NoSurvivorShedsEverythingAsHostLost) {
  // A scheduled crash fires at the same arm index on every host's
  // independent injector, so both hosts die at the same epoch barrier:
  // the first host's lanes briefly fail over to the second, then the
  // second host's crash abandons everything still pending.
  FaultPlan plan;
  plan.seed = 11;
  plan.set(FaultSite::kHostCrash, {.schedule = {2}});
  constexpr size_t kLanes = 4, kRequests = 12;
  auto cluster = crash_fleet(2, kLanes, kRequests, plan);
  const ClusterReport report = cluster->run(2).value();

  EXPECT_EQ(report.hosts_lost, 2u);
  EXPECT_TRUE(cluster->host_dead(0));
  EXPECT_TRUE(cluster->host_dead(1));

  // The abandoned lanes' events carry an empty destination and moved and
  // re-queued nothing.
  bool abandoned = false;
  for (const FailoverEvent& f : report.failovers) {
    if (!f.to_host.empty()) continue;
    abandoned = true;
    EXPECT_EQ(f.moved_bytes, 0u) << f.function;
    EXPECT_EQ(f.requeued, 0u) << f.function;
  }
  EXPECT_TRUE(abandoned);

  // Every request still resolves exactly once, the losses typed kHostLost.
  const Accounting a = account(report);
  EXPECT_EQ(a.offered, kLanes * kRequests);
  EXPECT_EQ(a.completed + a.shed, a.offered);
  EXPECT_GT(a.shed_host_lost, 0u);
  EXPECT_EQ(a.shed, a.shed_host_lost);  // the only shed cause in this run

  // Post-mortem interactions are typed, not silent: new work for a lane
  // stranded on a dead host is refused as kHostLost, and placement of a
  // new function finds no live host.
  const std::string fn = workloads::all_functions()[0].name + "#0";
  EXPECT_EQ(cluster->enqueue(fn, RequestGenerator::round_robin(1, 3)).code(),
            ErrorCode::kHostLost);
  FunctionSpec late = workloads::all_functions()[0];
  late.name = "late";
  EXPECT_EQ(cluster
                ->add(FunctionRegistration(std::move(late))
                          .policy(PolicyKind::kVanilla)
                          .seed(1),
                      RequestGenerator::round_robin(1, 3))
                .code(),
            ErrorCode::kHostLost);
}

// ---------------------------------------------------------------------------
// Transactional migration under kMigrationAbort.
// ---------------------------------------------------------------------------

/// Unconstrained tiered fast-tier footprint of the shared spec (mirrors
/// cluster_test): budgets scale with the workload, not hard-coded bytes.
u64 probe_tiered_fast_bytes() {
  auto probe = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                                PricingPlan{}, EngineOptions{});
  FunctionSpec spec = workloads::all_functions()[0];
  const std::string name = spec.name;
  EXPECT_TRUE(probe
                  ->add(FunctionRegistration(std::move(spec))
                            .policy(PolicyKind::kToss)
                            .toss(fast_toss())
                            .seed(42),
                        RequestGenerator::round_robin(40, 9))
                  .ok());
  EXPECT_TRUE(probe->run(1).ok());
  EXPECT_EQ(probe->toss_state(name)->phase(), TossPhase::kTiered);
  return probe->toss_state(name)->fast_resident_bytes();
}

/// Two-host pressure fleet (mirrors cluster_test::pressure_cluster): two
/// quick-tiering candidates split across the hosts, a profiling hog lands
/// on one and pins it at close-admission; the hog's tiered roommate is the
/// migration candidate. `abort_schedule` arms kMigrationAbort on every
/// host's injector (only the pinned source ever arms it).
struct PressureFleet {
  std::unique_ptr<ClusterEngine> cluster;
  size_t hog_host = 0;
  std::string candidate;
};

PressureFleet pressure_cluster(u64 budget, std::vector<u64> abort_schedule) {
  ClusterOptions opts;
  opts.hosts = 2;
  opts.migrate_after_pinned_epochs = 3;
  opts.host_options.chunk = 2;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = budget;
  opts.host_options.arbiter.keepalive = false;
  opts.cluster_fault_plan.seed = 77;
  opts.cluster_fault_plan.set(FaultSite::kMigrationAbort,
                              {.schedule = std::move(abort_schedule)});
  PressureFleet fleet;
  fleet.cluster = std::make_unique<ClusterEngine>(opts);

  TossOptions never_tiers = fast_toss();
  never_tiers.stable_invocations = 1000;
  never_tiers.max_profiling_invocations = 1000;
  const TossOptions toss_opts[] = {fast_toss(), fast_toss(), never_tiers};
  const size_t lengths[] = {60, 60, 80};
  for (size_t i = 0; i < 3; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    EXPECT_TRUE(fleet.cluster
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(toss_opts[i])
                              .seed(42 + i),
                          RequestGenerator::round_robin(lengths[i], 9))
                    .ok());
  }
  fleet.hog_host = fleet.cluster->host_of("float_operation#2");
  fleet.candidate = "float_operation#" + std::to_string(fleet.hog_host);
  return fleet;
}

TEST(FailureDomains, MigrationAbortRetriesThenCommits) {
  const u64 budget = 3 * probe_tiered_fast_bytes();
  // Arm 0 aborts the first transfer attempt; the bounded retry commits on
  // attempt 2 with the backoff charged to the lane.
  PressureFleet fleet = pressure_cluster(budget, {0});
  const ClusterReport report = fleet.cluster->run(2).value();

  ASSERT_GE(report.migrations.size(), 1u);
  const MigrationEvent& ev = report.migrations.front();
  EXPECT_EQ(ev.function, fleet.candidate);
  EXPECT_EQ(ev.outcome, MigrationOutcome::kCommitted);
  EXPECT_EQ(ev.attempts, 2u);
  EXPECT_GT(ev.retry_backoff_ns, 0);
  EXPECT_EQ(fleet.cluster->host_of(fleet.candidate), 1 - fleet.hog_host);
  EXPECT_EQ(report.total_invocations(), 60u + 60u + 80u);
  EXPECT_EQ(report.total_shed(), 0u);
}

TEST(FailureDomains, MigrationAbortExhaustionKeepsSourceAuthoritative) {
  const u64 budget = 3 * probe_tiered_fast_bytes();
  // Arms 0..2 abort all three attempts of the first migration: the
  // transaction rolls back, the source keeps the lane (no split
  // ownership), and the typed kAborted entry lands in the ledger. The
  // pressure persists, so a later clean transaction commits the move.
  PressureFleet fleet = pressure_cluster(budget, {0, 1, 2});
  const ClusterReport report = fleet.cluster->run(2).value();

  ASSERT_GE(report.migrations.size(), 1u);
  const MigrationEvent& aborted = report.migrations.front();
  EXPECT_EQ(aborted.function, fleet.candidate);
  EXPECT_EQ(aborted.outcome, MigrationOutcome::kAborted);
  EXPECT_EQ(aborted.attempts, 3u);
  EXPECT_EQ(aborted.transfer_ns, 0);  // rollback is free off the serving path

  // The lane lives on exactly one host at the end, and no work was lost
  // across abort + eventual commit.
  const size_t owner = fleet.cluster->host_of(fleet.candidate);
  ASSERT_NE(owner, ClusterEngine::npos);
  EXPECT_NE(fleet.cluster->host_at(owner).lane_host(fleet.candidate), nullptr);
  EXPECT_EQ(
      fleet.cluster->host_at(1 - owner).lane_host(fleet.candidate), nullptr);
  EXPECT_EQ(report.total_invocations(), 60u + 60u + 80u);
  EXPECT_EQ(report.total_shed(), 0u);
}

// ---------------------------------------------------------------------------
// Brownout quarantine and hysteresis readmission.
// ---------------------------------------------------------------------------

TEST(FailureDomains, BrownoutQuarantineReadmitsAfterCleanCooldown) {
  // Brownouts at arms 0 and 1 (epochs 1-2 of each host's stream) trip the
  // threshold-2 breaker; every later epoch is clean, so the cooldown
  // half-opens it and the clean probe readmits the host.
  FaultPlan plan;
  plan.seed = 5;
  plan.set(FaultSite::kHostBrownout,
           {.schedule = {0, 1}, .delay_ns = ms(1)});
  ClusterOptions opts;
  opts.hosts = 2;
  opts.cluster_fault_plan = plan;
  opts.health_breaker.failure_threshold = 2;
  opts.health_breaker.cooldown_invocations = 2;
  opts.host_options.chunk = 2;
  auto cluster = std::make_unique<ClusterEngine>(opts);
  for (size_t i = 0; i < 4; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    ASSERT_TRUE(cluster
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kVanilla)
                              .seed(20 + i),
                          RequestGenerator::round_robin(14, 60 + i))
                    .ok());
  }
  const ClusterReport report = cluster->run(2).value();

  // Per host: brownout, brownout, quarantine, (cooldown), probe, readmit —
  // in that order, with the breaker fully closed again by the end.
  for (size_t h = 0; h < 2; ++h) {
    const std::string name = cluster->host_at(h).name();
    std::vector<HostHealthAction> actions;
    for (const HostHealthEvent& e : report.health_events)
      if (e.host == name) actions.push_back(e.action);
    ASSERT_GE(actions.size(), 5u) << name;
    EXPECT_EQ(actions[0], HostHealthAction::kBrownout);
    EXPECT_EQ(actions[1], HostHealthAction::kBrownout);
    EXPECT_EQ(actions[2], HostHealthAction::kQuarantine);
    EXPECT_EQ(actions[3], HostHealthAction::kProbe);
    EXPECT_EQ(actions[4], HostHealthAction::kReadmit);
    EXPECT_FALSE(cluster->host_quarantined(h)) << name;
    EXPECT_FALSE(cluster->host_dead(h)) << name;
  }

  // The health rollup reaches each host's report.
  for (const ClusterHostReport& host : report.hosts) {
    EXPECT_FALSE(host.report.metrics.health.lost);
    EXPECT_EQ(host.report.metrics.health.brownouts, 2u);
    EXPECT_EQ(host.report.metrics.health.quarantines, 1u);
    EXPECT_EQ(host.report.metrics.health.readmissions, 1u);
  }
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"health\":{"), std::string::npos);
  EXPECT_NE(json.find("\"health_events\":["), std::string::npos);

  // No work lost: brownouts cost simulated time, never requests.
  EXPECT_EQ(report.total_invocations(), 4u * 14u);
  EXPECT_EQ(report.total_shed(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos-grade determinism: the full failure-domain ledger is thread-count
// independent.
// ---------------------------------------------------------------------------

TEST(FailureDomains, ChaosLedgersAreBitIdenticalAcrossThreadCounts) {
  for (u64 seed = 21; seed <= 23; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.set(FaultSite::kHostCrash, {.probability = 0.04, .max_fires = 1});
    plan.set(FaultSite::kHostBrownout,
             {.probability = 0.25, .delay_ns = ms(1)});
    plan.set(FaultSite::kMigrationAbort, {.probability = 0.5});

    auto serial = crash_fleet(3, 6, 10, plan);
    const ClusterReport s = serial->run(1).value();
    auto parallel = crash_fleet(3, 6, 10, plan);
    const ClusterReport p = parallel->run(4).value();
    EXPECT_TRUE(s == p) << "seed " << seed;
  }
}

}  // namespace
}  // namespace toss
