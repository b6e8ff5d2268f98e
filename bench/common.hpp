// Shared experiment plumbing for the bench harness: one simulated host, the
// Table-I registry, and helpers to build single-tier snapshots, REAP
// policies and fully-tiered TOSS functions the way the paper's methodology
// does (host page cache dropped between invocations; snapshots profiled on
// either all inputs or input IV only).
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "toss.hpp"

namespace toss::bench {

/// One simulated host shared by an experiment.
struct SimEnv {
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  Invoker invoker{cfg, store};
  FunctionRegistry registry = FunctionRegistry::table1();
};

/// Which inputs the profiling phase sees (Section VI-A's two snapshots).
enum class ProfileMix {
  kAllInputs,  ///< round-robin over inputs I..IV
  kInputIvOnly,
};

/// Drive a TossFunction through Steps I-IV until the tiered snapshot
/// exists. `stable` shrinks the paper's N=100 to keep experiment runtimes
/// sane without changing behaviour (convergence is convergence).
std::unique_ptr<TossFunction> run_toss_to_tiered(
    SimEnv& env, const FunctionModel& model, ProfileMix mix,
    u64 stable = 15, u64 max_invocations = 400, u64 seed = 4242);

/// Initial execution with `input`, returning the single-tier snapshot id
/// and the uffd working set REAP records during it.
struct SnapshotWithWs {
  u64 snapshot_id = 0;
  WorkingSet ws;
};
SnapshotWithWs make_snapshot(SimEnv& env, const FunctionModel& model,
                             int input, u64 seed);

/// Warm DRAM execution time (mean over `iters` seeds).
Nanos mean_warm_dram_ns(SimEnv& env, const FunctionModel& model, int input,
                        int iters, u64 seed_base);

/// Cold vanilla ("DRAM snapshot") invocation.
InvocationResult vanilla_invocation(SimEnv& env, u64 snapshot_id,
                                    const Invocation& inv);

/// Cold REAP invocation against a recorded working set.
InvocationResult reap_invocation(SimEnv& env, const SnapshotWithWs& snap,
                                 const Invocation& inv);

/// The paper's DRAM-only baseline: the function's memory permanently
/// resides in DRAM (that residency is exactly the cost TOSS attacks), so an
/// invocation pays only the VMM state load + one mapping, and execution is
/// warm (no faults). Returns the warm run with the per-rank demand the
/// concurrency model needs.
SoloRun dram_resident_run(SimEnv& env, const FunctionModel& m,
                          const Invocation& inv);

/// Total invocation time of the DRAM-resident baseline.
Nanos dram_resident_total_ns(SimEnv& env, const FunctionModel& m,
                             const Invocation& inv);

/// Setup time of the DRAM-resident baseline (vm state + one mapping).
Nanos dram_resident_setup_ns(const SimEnv& env);

/// Paper-standard input labels ("I".."IV").
const char* roman(int input);

/// The `--ladder=2|3|4` sweep axis (with `--config=paper|cxl|nvme` as a
/// spelled-out alias): 2 rungs = the paper's DDR4/PMem pair, 3 adds
/// CXL-attached DDR4 in the middle, 4 adds NVMe flash at the bottom.
/// Absent flag = paper_default(). Throws on unknown values.
SystemConfig ladder_config_from_args(int argc, char** argv);

/// Short label for a ladder shape, e.g. "2-tier (fast/slow)".
std::string ladder_label(const SystemConfig& cfg);

/// Directory for bench artifacts (JSON/CSV output). Defaults to
/// `<build>/bench_artifacts` so runs never litter the invoking CWD;
/// override with `--out-dir=PATH`. The directory is created on demand.
std::string artifact_dir(int argc, char** argv);

/// `artifact_dir(argc, argv)/filename`, creating the directory.
std::string artifact_path(int argc, char** argv,
                          const std::string& filename);

/// Real elapsed time since construction. Reports hold simulated state
/// only, so the scaling benches time their run() calls with this.
class Stopwatch {
 public:
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// The skewed fleet the cluster soaks (cluster_scale, cluster_chaos) run:
/// `lanes` small TOSS lanes cycling the three smallest Table-I specs (lane
/// i is "<spec>#i", converging after 4 stable of at most 16 profiled
/// invocations), plus one "hog" — the biggest Table-I guest, wedged in its
/// profiling phase (which pins its whole guest image in DRAM) for its
/// entire stream. The hog's host pins at the close-admission rung, so the
/// cluster must migrate tiered lanes away. Each bench keeps its own seeds.
struct SoakFleet {
  size_t lanes = 0;
  size_t hosts = 0;
  u64 lane_seed_base = 0;  ///< lane i registers with seed lane_seed_base + i
  u64 hog_seed = 0;

  /// Per-host fast-tier budget: generous against the lanes' predicted
  /// steady state (so the packer never has to overload a host) yet tiny
  /// against the hog's profiling-phase image (so the skew pins its host).
  u64 host_budget(const SystemConfig& cfg) const;
  /// Register every lane (`requests_per_lane` round-robin requests seeded
  /// by (seed, "lane<i>")), then the hog (`hog_requests`, seeded by (seed,
  /// "hog")) — last, so worst-fit drops it on the least-loaded host.
  void add_to(ClusterEngine& cluster, u64 seed, size_t requests_per_lane,
              size_t hog_requests) const;
};

/// The N-seed x {1, threads} determinism soak shared by the benches that
/// gate on ledger bit-equality. For each seed, `run(seed, threads)` and
/// `run(seed, 1)` produce two whole reports, which must be `==`, and
/// `observe(seed, parallel, match)` lets the caller log and collect rows
/// from the parallel run. Returns true iff every seed matched.
/// Single-configuration checks (overload_shed's heaviest-load gate) pass
/// one dummy seed; the shape is the contract, not the count.
template <typename RunFn, typename ObserveFn>
bool ledger_equality_sweep(const std::vector<u64>& seeds, int threads,
                           RunFn&& run, ObserveFn&& observe) {
  bool all_match = true;
  for (const u64 seed : seeds) {
    auto parallel = run(seed, threads);
    auto serial = run(seed, 1);
    const bool match = serial == parallel;
    observe(seed, parallel, match);
    all_match = all_match && match;
  }
  return all_match;
}

}  // namespace toss::bench
