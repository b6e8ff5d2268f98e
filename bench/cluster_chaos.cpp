// Cluster chaos soak: K of N hosts die mid-run and the fleet must not lose
// (or duplicate) a single request (DESIGN.md §13).
//
// 8 simulated hosts carry 48 small TOSS lanes plus the cluster_scale hog
// (a large function wedged in profiling so its host pins at the
// close-admission rung and migrations — and therefore kMigrationAbort
// retries — actually happen). The cluster-level fault plan arms
// probability-based host crashes, brownout epochs and migration aborts;
// the three soak seeds are curated so that exactly 2 of the 8 hosts crash
// after the soak has warmed up (never at epoch 0). Dead hosts' lanes are
// re-placed onto survivors by the failover barrier; whatever cannot be
// re-admitted is shed with the typed kHostLost cause.
//
// Results land in cluster_chaos.json under the bench artifact directory
// (--out-dir=PATH, default <build>/bench_artifacts). The process exits
// nonzero — a CI gate, not just a plot — if any seed breaks one of:
//
//   Exactly-once. Every offered request resolves to exactly one of
//   completed or shed-with-typed-cause: offered == completed + shed and
//   offered == the generated request count, per seed.
//
//   Proportional goodput. Losing 2 of 8 hosts may cost at most the dead
//   hosts' proportional share: completed >= total * survivors / hosts.
//   (Failover should do much better; the proportional bound is the floor.)
//
//   Bounded setup tail. The worst per-function p99 setup time under chaos
//   stays within kSetupTailSlack x the fault-free run's worst p99 — the
//   recovery ladder is allowed to cost time, never a tail collapse.
//
//   Determinism. The whole ClusterReport (every ledger, stat, outcome and
//   rollup) is `==` between a 1-thread and a 4-thread run at every seed.
//
// `--calibrate=N` sweeps cluster seeds 1..N printing hosts_lost and the
// crash epochs per seed (for re-curating kSeeds after a change to the
// epoch schedule), then exits without gating. `--threads=N` sets the
// parallel side of the determinism comparison (default 4); the CI
// parallel-soak job runs the bench at 1 and 8.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "toss.hpp"

#include "common.hpp"

using namespace toss;

namespace {

constexpr size_t kHosts = 8;
constexpr size_t kLanes = 48;
constexpr size_t kRequestsPerLane = 30;
constexpr size_t kHogRequests = 45;
constexpr size_t kExpectedHostsLost = 2;
constexpr int kPinnedEpochs = 3;
constexpr double kSetupTailSlack = 4.0;
/// Curated so each seed kills exactly kExpectedHostsLost hosts mid-soak
/// (see --calibrate). Re-curate if the fleet shape or crash rate changes.
constexpr u64 kSeeds[] = {9, 14, 19};

const bench::SoakFleet kFleet{kLanes, kHosts, /*lane_seed_base=*/1100,
                              /*hog_seed=*/37};

/// Host crashes are rare per epoch (the seeds are curated for exactly K
/// dead); brownouts are common enough to exercise the health breaker;
/// migration aborts are frequent so the transactional retry path soaks.
FaultPlan chaos_plan(u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set(FaultSite::kHostCrash, {.probability = 0.01, .max_fires = 1});
  plan.set(FaultSite::kHostBrownout,
           {.probability = 0.12, .delay_ns = ms(1)});
  plan.set(FaultSite::kMigrationAbort, {.probability = 0.5});
  return plan;
}

std::unique_ptr<ClusterEngine> make_cluster(const SystemConfig& cfg,
                                            u64 budget, u64 seed,
                                            bool with_faults = true) {
  ClusterOptions opts;
  opts.hosts = kHosts;
  opts.migrate_after_pinned_epochs = kPinnedEpochs;
  opts.host_options.chunk = 2;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = budget;
  if (with_faults)
    opts.cluster_fault_plan = chaos_plan(mix_seed(seed, "cluster-chaos"));
  opts.health_breaker.failure_threshold = 2;
  opts.health_breaker.cooldown_invocations = 3;
  auto cluster = std::make_unique<ClusterEngine>(opts, cfg);
  // The cluster_scale fleet shape: the hog pins its host so migrations
  // (and their injected aborts) actually happen during the soak.
  kFleet.add_to(*cluster, seed, kRequestsPerLane, kHogRequests);
  return cluster;
}

struct SeedRow {
  u64 seed = 0;
  u64 offered = 0, completed = 0, shed = 0, shed_host_lost = 0;
  u64 hosts_lost = 0, failovers = 0, requeued = 0;
  u64 migrations = 0, aborted_migrations = 0, epochs = 0;
  std::vector<u64> crash_epochs;
  double p99_setup_ms = 0;
  bool ledgers_match = false;
};

SeedRow summarize(u64 seed, const ClusterReport& report, bool match) {
  SeedRow row;
  row.seed = seed;
  row.hosts_lost = report.hosts_lost;
  row.epochs = report.epochs;
  row.ledgers_match = match;
  for (const ClusterHostReport& host : report.hosts) {
    for (const FunctionReport& f : host.report.functions) {
      row.offered += f.overload.offered;
      row.completed += f.overload.completed;
      row.shed += f.overload.total_shed();
      row.shed_host_lost += f.overload.shed_by(ShedCause::kHostLost);
      // A migrated lane's histogram is its whole history, reported under
      // its current host.
      row.p99_setup_ms =
          std::max(row.p99_setup_ms, to_ms(f.stats.setup_ns.percentile(99)));
    }
  }
  for (const MigrationEvent& m : report.migrations) {
    ++row.migrations;
    if (m.outcome == MigrationOutcome::kAborted) ++row.aborted_migrations;
  }
  for (const FailoverEvent& f : report.failovers) {
    ++row.failovers;
    row.requeued += f.requeued;
  }
  for (const HostHealthEvent& e : report.health_events)
    if (e.action == HostHealthAction::kCrash)
      row.crash_epochs.push_back(e.epoch);
  return row;
}

void write_json(const std::string& path, u64 budget,
                const std::vector<SeedRow>& rows) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"cluster_chaos\",\"hosts\":%zu,\"lanes\":%zu,"
               "\"requests_per_lane\":%zu,\"hog_requests\":%zu,"
               "\"expected_hosts_lost\":%zu,\"fast_budget_bytes\":%llu,"
               "\"seeds\":[",
               kHosts, kLanes + 1, kRequestsPerLane, kHogRequests,
               kExpectedHostsLost, static_cast<unsigned long long>(budget));
  for (size_t i = 0; i < rows.size(); ++i) {
    const SeedRow& r = rows[i];
    std::fprintf(out,
                 "%s{\"seed\":%llu,\"offered\":%llu,\"completed\":%llu,"
                 "\"shed\":%llu,\"shed_host_lost\":%llu,\"hosts_lost\":%llu,"
                 "\"failovers\":%llu,\"requeued\":%llu,\"migrations\":%llu,"
                 "\"aborted_migrations\":%llu,\"epochs\":%llu,"
                 "\"crash_epochs\":[",
                 i ? "," : "", static_cast<unsigned long long>(r.seed),
                 static_cast<unsigned long long>(r.offered),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.shed),
                 static_cast<unsigned long long>(r.shed_host_lost),
                 static_cast<unsigned long long>(r.hosts_lost),
                 static_cast<unsigned long long>(r.failovers),
                 static_cast<unsigned long long>(r.requeued),
                 static_cast<unsigned long long>(r.migrations),
                 static_cast<unsigned long long>(r.aborted_migrations),
                 static_cast<unsigned long long>(r.epochs));
    for (size_t c = 0; c < r.crash_epochs.size(); ++c)
      std::fprintf(out, "%s%llu", c ? "," : "",
                   static_cast<unsigned long long>(r.crash_epochs[c]));
    std::fprintf(out, "],\"p99_setup_ms\":%.4f,\"ledgers_match\":%s}",
                 r.p99_setup_ms, r.ledgers_match ? "true" : "false");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("artifact: %s\n", path.c_str());
}

/// `--calibrate=N`: report hosts_lost per candidate seed so kSeeds can be
/// re-curated after a change to the fleet or the crash rate.
int calibrate(const SystemConfig& cfg, u64 budget, u64 max_seed) {
  for (u64 seed = 1; seed <= max_seed; ++seed) {
    auto cluster = make_cluster(cfg, budget, seed);
    const ClusterReport report = cluster->run(4).value();
    std::string epochs;
    for (const HostHealthEvent& e : report.health_events)
      if (e.action == HostHealthAction::kCrash)
        epochs += (epochs.empty() ? "" : ",") + std::to_string(e.epoch);
    std::printf("seed %llu: hosts_lost=%llu crash_epochs=[%s] epochs=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(report.hosts_lost),
                epochs.c_str(),
                static_cast<unsigned long long>(report.epochs));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const SystemConfig cfg = bench::ladder_config_from_args(argc, argv);
  const u64 budget = kFleet.host_budget(cfg);

  int threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--calibrate=", 0) == 0)
      return calibrate(cfg, budget,
                       std::strtoull(arg.data() + 12, nullptr, 10));
    if (arg.rfind("--threads=", 0) == 0) threads = std::atoi(arg.data() + 10);
  }
  if (threads < 1) threads = 1;

  constexpr u64 kExpected = kLanes * kRequestsPerLane + kHogRequests;
  std::vector<SeedRow> rows;
  const std::vector<u64> seeds(std::begin(kSeeds), std::end(kSeeds));
  const bool ledgers_ok = bench::ledger_equality_sweep(
      seeds, threads,
      [&](u64 seed, int t) {
        return make_cluster(cfg, budget, seed)->run(t).value();
      },
      [&](u64 seed, const ClusterReport& report, bool match) {
        const SeedRow row = summarize(seed, report, match);
        std::printf(
            "seed %llu: offered=%llu completed=%llu shed=%llu (host_lost=%llu) "
            "dead_hosts=%llu failovers=%llu requeued=%llu migrations=%llu "
            "(aborted=%llu) p99_setup=%.3fms ledgers %s\n",
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(row.offered),
            static_cast<unsigned long long>(row.completed),
            static_cast<unsigned long long>(row.shed),
            static_cast<unsigned long long>(row.shed_host_lost),
            static_cast<unsigned long long>(row.hosts_lost),
            static_cast<unsigned long long>(row.failovers),
            static_cast<unsigned long long>(row.requeued),
            static_cast<unsigned long long>(row.migrations),
            static_cast<unsigned long long>(row.aborted_migrations),
            row.p99_setup_ms, match ? "match" : "DIVERGED");
        rows.push_back(row);
      });

  // Fault-free tail baseline for the setup-time gate (one seed is enough:
  // the clean runs differ only in arrival jitter, not in tier layout).
  double clean_p99_ms = 0;
  auto baseline = make_cluster(cfg, budget, kSeeds[0], /*with_faults=*/false);
  const ClusterReport clean_report = baseline->run(threads).value();
  for (const ClusterHostReport& host : clean_report.hosts)
    for (const FunctionReport& f : host.report.functions)
      clean_p99_ms =
          std::max(clean_p99_ms, to_ms(f.stats.setup_ns.percentile(99)));
  std::printf("fault-free baseline p99 setup: %.3f ms\n", clean_p99_ms);

  write_json(bench::artifact_path(argc, argv, "cluster_chaos.json"), budget,
             rows);

  bool exactly_once = true, proportional = true, tail_ok = true,
       crashes_ok = true;
  for (const SeedRow& r : rows) {
    exactly_once = exactly_once && r.offered == kExpected &&
                   r.completed + r.shed == r.offered;
    crashes_ok = crashes_ok && r.hosts_lost == kExpectedHostsLost;
    for (const u64 epoch : r.crash_epochs)
      crashes_ok = crashes_ok && epoch > 0;
    const u64 floor = kExpected * (kHosts - kExpectedHostsLost) / kHosts;
    proportional = proportional && r.completed >= floor;
    tail_ok = tail_ok && r.p99_setup_ms <= kSetupTailSlack * clean_p99_ms;
  }

  if (!exactly_once) {
    std::printf("FAIL: a request was lost or duplicated (offered != "
                "completed + shed)\n");
    return 1;
  }
  if (!crashes_ok) {
    std::printf("FAIL: a seed did not kill exactly %zu hosts mid-soak "
                "(re-curate kSeeds)\n",
                kExpectedHostsLost);
    return 1;
  }
  if (!proportional) {
    std::printf("FAIL: goodput degraded worse than proportionally to lost "
                "capacity\n");
    return 1;
  }
  if (!tail_ok) {
    std::printf("FAIL: p99 setup exceeded %.1fx the fault-free baseline\n",
                kSetupTailSlack);
    return 1;
  }
  if (!ledgers_ok) {
    std::printf("FAIL: cluster ledgers diverged between 1 and %d threads\n",
                threads);
    return 1;
  }
  std::printf("chaos gates hold: %zu/%zu hosts lost per seed, "
              "exactly-once accounting intact\n",
              kExpectedHostsLost, kHosts);
  return 0;
}
