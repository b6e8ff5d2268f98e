// Ablation (Section V-F): merging adjacent regions.
//
// Setup time in TOSS is one mmap per layout entry, so fewer regions mean
// faster restores. Compare the mapping count and setup time with and
// without access-count merging (threshold 100 vs 0), and verify the merged
// placement produces the same slowdown (the paper found <100-count merging
// is behaviour-preserving).
#include <benchmark/benchmark.h>

#include <cmath>

#include "common.hpp"

using namespace toss;
using namespace toss::bench;

namespace {

struct MergeOutcome {
  u64 mappings = 0;
  Nanos setup_ns = 0;
  double slowdown = 0;
};

MergeOutcome run_with_threshold(SimEnv& env, const FunctionModel& m,
                                u64 threshold) {
  // Idealized unified pattern.
  PageAccessCounts unified(m.guest_pages());
  for (int input = 0; input < kNumInputs; ++input)
    for (u64 rep = 0; rep < 2; ++rep)
      unified.merge_max(PageAccessCounts::from_trace(
          m.invoke(input, 660 + rep).trace, m.guest_pages()));
  unified.scale(DamonConfig{}.count_scale);

  const RegionList merged = regionize_and_merge(unified, threshold);
  const auto bins = pack_equal_access(nonzero_access_regions(merged), 10);
  const Invocation rep = m.invoke(3, 662);
  const TieringDecision d = choose_placement(
      env.cfg, bins, zero_access_regions(merged), m.guest_pages(), rep, {});

  // Tier the snapshot and restore it to measure real setup time.
  const SnapshotWithWs snap = make_snapshot(env, m, 3, 663);
  const u64 tiered_id = tier_snapshot(
      env.store, *env.store.get_single_tier(snap.snapshot_id), d.placement);
  env.store.drop_caches();
  MicroVm vm(env.cfg, env.store);
  const auto setup = vm.restore(TossPolicy(env.store, tiered_id).plan_restore());

  return MergeOutcome{d.placement.runs().size(), setup.setup_ns,
                      d.expected_slowdown};
}

void print_ablation() {
  SimEnv env;
  AsciiTable t({"function", "threshold", "mappings", "setup", "slowdown"});
  for (const char* name : {"float_operation", "lr_serving", "pagerank"}) {
    const FunctionModel& m = *env.registry.find(name);
    for (u64 threshold : {0ull, 10ull, 100ull, 1000ull}) {
      const MergeOutcome o = run_with_threshold(env, m, threshold);
      t.add_row({name, std::to_string(threshold), std::to_string(o.mappings),
                 format_nanos(o.setup_ns), fmt_pct(o.slowdown)});
    }
  }
  std::puts(
      "Ablation: access-count merge threshold vs mapping count, setup time "
      "and slowdown (paper: <100 merging is behaviour-preserving)");
  t.print();
}

void BM_region_merge(benchmark::State& state) {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("pagerank");
  PageAccessCounts unified(m.guest_pages());
  unified.merge_max(PageAccessCounts::from_trace(m.invoke(3, 660).trace,
                                                 m.guest_pages()));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        regionize_and_merge(unified, state.range(0)).size());
  state.SetLabel("threshold=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_region_merge)->Arg(0)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
