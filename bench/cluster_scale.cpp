// Cluster scale-out soak: 8 simulated hosts x 100+ lanes behind the
// ClusterEngine placement layer (DESIGN.md §10), doubling as the parallel
// data plane's scaling + determinism gate (DESIGN.md §15).
//
// The fleet is 104 small TOSS functions bin-packed by predicted fast-tier
// demand against a per-host budget sized to ~1.4x the mean per-host load,
// plus one "hog": a large function held in its profiling phase (which pins
// its whole guest image in DRAM) for the entire run. The hog's host pins
// at the close-admission rung, and the cluster must respond by migrating
// tiered functions away — the skewed-load story the placement estimate
// alone cannot solve.
//
// Every seed runs at worker threads {1, 4, T} (T = 8, or --threads=N),
// with faults off and again with a brownout + migration-abort fault plan
// armed. The 1-thread run is the reference; every other thread count's
// whole ClusterReport must be `==` to it. The bench times each fault-free
// run() call; those wall times become the scaling curve in the JSON
// artifact.
//
// Results land in cluster_scale.json under the bench artifact directory
// (--out-dir=PATH, default <build>/bench_artifacts). The process exits
// nonzero — a CI gate, not just a plot — if placement ever exceeds a host
// budget, if the skew produced no migration, if any fault-free work was
// shed or lost (those streams are all-admitted-up-front, so goodput must
// be 100%), if any variant's ledger diverges from the reference, or if the
// parallel speedup at T threads falls below the floor the machine can
// actually deliver: >= 3x when the host has >= 8 hardware threads and T
// >= 8, >= 1.5x when it has >= 4; below that the curve is report-only (a
// single-core runner cannot demonstrate parallel speedup by construction).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "toss.hpp"

#include "common.hpp"

using namespace toss;

namespace {

constexpr size_t kHosts = 8;
constexpr size_t kLanes = 104;
constexpr size_t kRequestsPerLane = 40;
constexpr size_t kHogRequests = 60;
constexpr int kPinnedEpochs = 4;
constexpr u64 kSeeds[] = {1, 2, 3};

const bench::SoakFleet kFleet{kLanes, kHosts, /*lane_seed_base=*/900,
                              /*hog_seed=*/31};

/// Faults-on mode: brownouts soak the health breaker and migration aborts
/// soak the transactional retry path, but no kHostCrash — this bench's
/// goodput gate requires 100% completion, and the chaos soak
/// (cluster_chaos) already owns the crash story.
FaultPlan scale_fault_plan(u64 seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.set(FaultSite::kHostBrownout, {.probability = 0.08, .delay_ns = ms(1)});
  plan.set(FaultSite::kMigrationAbort, {.probability = 0.4});
  return plan;
}

std::unique_ptr<ClusterEngine> make_cluster(const SystemConfig& cfg,
                                            u64 budget, u64 seed,
                                            bool with_faults) {
  ClusterOptions opts;
  opts.hosts = kHosts;
  opts.migrate_after_pinned_epochs = kPinnedEpochs;
  opts.host_options.chunk = 2;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = budget;
  if (with_faults)
    opts.cluster_fault_plan = scale_fault_plan(mix_seed(seed, "scale-faults"));
  auto cluster = std::make_unique<ClusterEngine>(opts, cfg);
  kFleet.add_to(*cluster, seed, kRequestsPerLane, kHogRequests);
  return cluster;
}

struct SeedRow {
  u64 seed = 0;
  bool faults = false;
  u64 invocations = 0, shed = 0, migrations = 0, epochs = 0;
  bool ledgers_match = false;
  double wall_ms = 0;  ///< the T-thread run
};

/// One point on the scaling curve: mean wall time of the fault-free runs
/// at `threads` workers over all seeds.
struct ScalePoint {
  int threads = 1;
  double wall_ms_sum = 0;
  size_t runs = 0;
  double mean_ms() const { return runs ? wall_ms_sum / runs : 0; }
};

void write_json(const std::string& path, u64 budget,
                const std::vector<SeedRow>& rows,
                const std::vector<ScalePoint>& curve, double serial_ms,
                double speedup, const std::vector<MigrationEvent>& migrations) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"cluster_scale\",\"hosts\":%zu,\"lanes\":%zu,"
               "\"requests_per_lane\":%zu,\"hog_requests\":%zu,"
               "\"pinned_epochs\":%d,\"fast_budget_bytes\":%llu,"
               "\"hardware_threads\":%d,\"seeds\":[",
               kHosts, kLanes + 1, kRequestsPerLane, kHogRequests,
               kPinnedEpochs, static_cast<unsigned long long>(budget),
               hardware_threads());
  for (size_t i = 0; i < rows.size(); ++i) {
    const SeedRow& r = rows[i];
    std::fprintf(out,
                 "%s{\"seed\":%llu,\"faults\":%s,\"invocations\":%llu,"
                 "\"shed\":%llu,\"migrations\":%llu,\"epochs\":%llu,"
                 "\"ledgers_match\":%s,\"wall_ms\":%.1f}",
                 i ? "," : "", static_cast<unsigned long long>(r.seed),
                 r.faults ? "true" : "false",
                 static_cast<unsigned long long>(r.invocations),
                 static_cast<unsigned long long>(r.shed),
                 static_cast<unsigned long long>(r.migrations),
                 static_cast<unsigned long long>(r.epochs),
                 r.ledgers_match ? "true" : "false", r.wall_ms);
  }
  std::fprintf(out, "],\"scaling\":{\"serial_wall_ms\":%.1f,"
               "\"speedup_at_max\":%.2f,\"points\":[", serial_ms, speedup);
  for (size_t i = 0; i < curve.size(); ++i) {
    const ScalePoint& p = curve[i];
    const double mean = p.mean_ms();
    std::fprintf(out,
                 "%s{\"threads\":%d,\"wall_ms\":%.1f,\"speedup\":%.2f}",
                 i ? "," : "", p.threads, mean,
                 mean > 0 ? serial_ms / mean : 0.0);
  }
  std::fprintf(out, "]},\"migration_events\":[");
  for (size_t i = 0; i < migrations.size(); ++i) {
    const MigrationEvent& m = migrations[i];
    std::fprintf(out,
                 "%s{\"epoch\":%llu,\"function\":\"%s\",\"from\":\"%s\","
                 "\"to\":\"%s\",\"moved_bytes\":%llu,\"transfer_ns\":%.0f}",
                 i ? "," : "", static_cast<unsigned long long>(m.epoch),
                 m.function.c_str(), m.from_host.c_str(), m.to_host.c_str(),
                 static_cast<unsigned long long>(m.moved_bytes),
                 m.transfer_ns);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("artifact: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // `--config=paper|cxl|nvme` (or --ladder=2|3|4) picks the host ladder;
  // the default two-tier run is the bit-stable CI artifact. `--threads=N`
  // sets the top of the scaling sweep (default 8).
  const SystemConfig cfg = bench::ladder_config_from_args(argc, argv);
  int max_threads = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0)
      max_threads = std::atoi(arg.data() + 10);
  }
  if (max_threads < 1) max_threads = 1;

  const u64 budget = kFleet.host_budget(cfg);
  std::printf("hosts=%zu lanes=%zu budget=%.1f MiB/host max_threads=%d "
              "(hardware: %d)\n",
              kHosts, kLanes + 1,
              static_cast<double>(budget) / static_cast<double>(kMiB),
              max_threads, hardware_threads());

  // The sweep axis: worker thread counts {1, 4, T}, deduplicated and
  // sorted; 1 is the reference.
  std::vector<int> thread_axis = {1, 4, max_threads};
  std::sort(thread_axis.begin(), thread_axis.end());
  thread_axis.erase(std::unique(thread_axis.begin(), thread_axis.end()),
                    thread_axis.end());

  constexpr u64 kExpected = kLanes * kRequestsPerLane + kHogRequests;
  std::vector<SeedRow> rows;
  std::vector<ScalePoint> curve;
  for (const int t : thread_axis) curve.push_back({t, 0, 0});
  std::vector<MigrationEvent> sample_migrations;
  bool placement_ok = true, goodput_ok = true, migrated = false;
  bool ledgers_ok = true;

  for (const bool faults : {false, true}) {
    for (const u64 seed : kSeeds) {
      // Every thread count runs the same cluster; the first (1 worker) is
      // the reference each later ledger must reproduce.
      SeedRow row;
      row.seed = seed;
      row.faults = faults;
      row.ledgers_match = true;
      std::optional<ClusterReport> reference;
      for (const int threads : thread_axis) {
        auto cluster = make_cluster(cfg, budget, seed, faults);
        if (!faults && !reference)
          for (size_t h = 0; h < kHosts; ++h)
            placement_ok = placement_ok && cluster->predicted_load()[h] <=
                                               cluster->host_fast_budget_bytes(h);
        const bench::Stopwatch watch;
        ClusterReport report = cluster->run(threads).value();
        const double wall_ms = watch.ms();
        if (!faults) {
          ScalePoint& point =
              *std::find_if(curve.begin(), curve.end(),
                            [&](const ScalePoint& p) {
                              return p.threads == threads;
                            });
          point.wall_ms_sum += wall_ms;
          ++point.runs;
        }
        if (threads == max_threads) {
          row.invocations = report.total_invocations();
          row.shed = report.total_shed();
          row.migrations = report.migrations.size();
          row.epochs = report.epochs;
          row.wall_ms = wall_ms;
          if (!faults) {
            goodput_ok = goodput_ok && row.shed == 0 &&
                         row.invocations == kExpected;
            if (!report.migrations.empty()) migrated = true;
            if (sample_migrations.empty())
              sample_migrations = report.migrations;
          }
        }
        if (!reference) {
          reference = std::move(report);
          continue;
        }
        const bool match = report == *reference;
        row.ledgers_match = row.ledgers_match && match;
        if (!match)
          std::printf("DIVERGED: seed %llu faults=%d threads=%d\n",
                      static_cast<unsigned long long>(seed), faults ? 1 : 0,
                      threads);
      }
      ledgers_ok = ledgers_ok && row.ledgers_match;
      rows.push_back(row);
      std::printf(
          "seed %llu (faults %s): %llu invocations, %llu shed, %llu "
          "migrations over %llu epochs, ledgers %s\n",
          static_cast<unsigned long long>(seed), faults ? "on" : "off",
          static_cast<unsigned long long>(row.invocations),
          static_cast<unsigned long long>(row.shed),
          static_cast<unsigned long long>(row.migrations),
          static_cast<unsigned long long>(row.epochs),
          row.ledgers_match ? "match" : "DIVERGED");
    }
  }

  const double serial_ms = curve.front().mean_ms();
  double speedup_at_max = 0;
  for (const ScalePoint& p : curve) {
    const double mean = p.mean_ms();
    const double speedup = mean > 0 ? serial_ms / mean : 0;
    if (p.threads == max_threads) speedup_at_max = speedup;
    std::printf("scaling: %d threads -> %.1f ms (speedup %.2fx)\n", p.threads,
                mean, speedup);
  }

  write_json(bench::artifact_path(argc, argv, "cluster_scale.json"), budget,
             rows, curve, serial_ms, speedup_at_max, sample_migrations);

  if (!placement_ok) {
    std::printf("FAIL: placement exceeded a host's fast-tier budget\n");
    return 1;
  }
  if (!migrated) {
    std::printf("FAIL: the hog skew never triggered a migration\n");
    return 1;
  }
  if (!goodput_ok) {
    std::printf("FAIL: work was shed or lost (goodput < 100%%)\n");
    return 1;
  }
  if (!ledgers_ok) {
    std::printf("FAIL: a cluster ledger diverged from the 1-thread "
                "reference\n");
    return 1;
  }
  // Speedup floor, scaled to what the machine can deliver: a runner with
  // fewer hardware threads than the sweep top cannot exhibit the full
  // parallel speedup no matter how good the executor is.
  const int hw = hardware_threads();
  double floor = 0;
  if (hw >= 8 && max_threads >= 8)
    floor = 3.0;
  else if (hw >= 4 && max_threads >= 4)
    floor = 1.5;
  if (floor > 0 && speedup_at_max < floor) {
    std::printf("FAIL: %d-thread speedup %.2fx below the %.1fx floor "
                "(hardware threads: %d)\n",
                max_threads, speedup_at_max, floor, hw);
    return 1;
  }
  if (floor == 0)
    std::printf("note: %d hardware threads — speedup is report-only on this "
                "machine\n", hw);
  std::printf("cluster scale gates hold: %zu lanes on %zu hosts, "
              "%zu sample migrations, %.2fx at %d threads\n",
              kLanes + 1, kHosts, sample_migrations.size(), speedup_at_max,
              max_threads);
  return 0;
}
