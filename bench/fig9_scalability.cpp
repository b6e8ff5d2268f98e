// Figure 9: execution-time slowdown under 1/5/10/20 concurrent invocations
// of execution input IV, normalized to the DRAM case at the same
// concurrency. Three systems: TOSS (min-cost tiered snapshot), REAP Best
// (snapshot input == execution input) and REAP Worst (snapshot input I).
//
// Paper shape at 20-way: REAP Worst avg ~3.79x (up to ~19x); TOSS avg
// ~1.95x (up to ~4.2x); about half the functions track DRAM under TOSS;
// pagerank scales like DRAM because its hot half stays in DRAM.
//
// `--ladder=2|3|4` sweeps the host's memory ladder (DESIGN.md §11): each
// deeper shape re-runs the whole figure with Step III placing bins across
// more rungs, each rung with its own bandwidth-contention pool.
#include <benchmark/benchmark.h>

#include "common.hpp"

using namespace toss;
using namespace toss::bench;

namespace {

constexpr int kLevels[] = {1, 5, 10, 20};

/// Solo execution under a policy; only the execution (not setup) feeds the
/// contention model, matching the figure's "execution time slowdown".
SoloRun solo_exec(SimEnv& env, const RestorePolicy& policy,
                  const Invocation& inv) {
  env.store.drop_caches();
  MicroVm vm(env.cfg, env.store);
  vm.restore(policy.plan_restore());
  const ExecutionResult exec = vm.execute(inv.trace, inv.cpu_ns);
  return SoloRun{exec, vm.demand()};
}

Nanos contended_mean(const SimEnv& env, const SoloRun& solo, int k) {
  const std::vector<SoloRun> group(static_cast<size_t>(k), solo);
  const auto out = run_concurrent(env.cfg, group);
  OnlineStats st;
  for (Nanos t : out.exec_ns) st.add(t);
  return st.mean();
}

/// Per-function fig9 rows, computed independently so the fleet fans out
/// over a LaneExecutor. Each index runs on its own SimEnv (own snapshot
/// store + page cache), which is exactly the isolation PlatformEngine
/// lanes use — results are identical to the serial sweep.
struct FunctionRows {
  std::vector<std::vector<std::string>> cells;  // 3 rows of table cells
  double toss20 = 0;
  double reapw20 = 0;
};

FunctionRows fig9_rows_for(const SystemConfig& cfg, size_t model_index) {
  SimEnv env{cfg};
  const FunctionModel& m = env.registry.models()[model_index];
  FunctionRows out;

  const auto toss = run_toss_to_tiered(env, m, ProfileMix::kAllInputs);
  const TossPolicy toss_policy(env.store,
                               toss->tiered_snapshot()->fast_file_id());
  const SnapshotWithWs best = make_snapshot(env, m, 3, 801);
  const SnapshotWithWs worst = make_snapshot(env, m, 0, 802);

  const Invocation inv = m.invoke(3, 9090);
  const SoloRun dram = dram_resident_run(env, m, inv);
  const SoloRun toss_run = solo_exec(env, toss_policy, inv);
  const SoloRun reap_best = solo_exec(
      env, ReapPolicy(env.store, best.snapshot_id, best.ws), inv);
  const SoloRun reap_worst = solo_exec(
      env, ReapPolicy(env.store, worst.snapshot_id, worst.ws), inv);

  struct Row {
    const char* label;
    const SoloRun* solo;
  };
  const Row rows[] = {{"TOSS", &toss_run},
                      {"REAP Best", &reap_best},
                      {"REAP Worst", &reap_worst}};
  for (const Row& row : rows) {
    std::vector<std::string> cells{m.name(), row.label};
    for (int k : kLevels) {
      const Nanos dram_k = contended_mean(env, dram, k);
      const double norm = contended_mean(env, *row.solo, k) / dram_k;
      cells.push_back(fmt_x(norm));
      if (k == 20 && std::string(row.label) == "TOSS") out.toss20 = norm;
      if (k == 20 && std::string(row.label) == "REAP Worst")
        out.reapw20 = norm;
    }
    out.cells.push_back(std::move(cells));
  }
  return out;
}

void print_fig9(const SystemConfig& cfg) {
  std::printf("ladder: %s\n", ladder_label(cfg).c_str());
  const size_t num_models = FunctionRegistry::table1().models().size();
  std::vector<FunctionRows> per_function(num_models);
  LaneExecutor executor(hardware_threads());
  executor.run_epoch(num_models,
                     [&](size_t i) { per_function[i] = fig9_rows_for(cfg, i); });

  AsciiTable t({"function", "system", "K=1", "K=5", "K=10", "K=20"});
  OnlineStats toss20, reapw20;
  double toss20_max = 0, reapw20_max = 0;
  for (const FunctionRows& fr : per_function) {
    for (const auto& cells : fr.cells) t.add_row(cells);
    toss20.add(fr.toss20);
    toss20_max = std::max(toss20_max, fr.toss20);
    reapw20.add(fr.reapw20);
    reapw20_max = std::max(reapw20_max, fr.reapw20);
  }
  std::puts(
      "Fig 9: execution time slowdown for concurrent invocations (input "
      "IV), normalized to DRAM at the same concurrency");
  t.print();
  std::printf(
      "at K=20: TOSS avg %s max %s (paper ~1.95x / ~4.2x); REAP Worst avg "
      "%s max %s (paper ~3.79x / ~19x)\n",
      fmt_x(toss20.mean()).c_str(), fmt_x(toss20_max).c_str(),
      fmt_x(reapw20.mean()).c_str(), fmt_x(reapw20_max).c_str());
}

void BM_contention_model(benchmark::State& state) {
  SimEnv env;
  SoloRun solo;
  solo.exec.exec_ns = ms(100);
  solo.exec.cpu_ns = ms(20);
  solo.demand.tier_ns[1] = ms(80);
  solo.demand.tier_read_bytes[1] = 4e9;
  const std::vector<SoloRun> group(20, solo);
  for (auto _ : state) {
    ConcurrencyOutcome outcome = run_concurrent(env.cfg, group);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_contention_model);

}  // namespace

int main(int argc, char** argv) {
  print_fig9(ladder_config_from_args(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
