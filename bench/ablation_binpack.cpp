// Ablation (Section V-C): bin construction strategy.
//
// Compare three ways of forming the 10 bins before the progressive offload
// sweep: density-grouped equal-access bins (TOSS), the plain greedy
// constant-bin-count heuristic (mass-balanced but density-mixed), and the
// equal-*size* strawman the paper argues against. Metric: the minimum
// normalized cost the optimizer can reach from each bin set.
#include <benchmark/benchmark.h>

#include "common.hpp"

using namespace toss;
using namespace toss::bench;

namespace {

double min_cost_with(SimEnv& env, const FunctionModel& m,
                     std::vector<Bin> (*packer)(const RegionList&, int)) {
  PageAccessCounts unified(m.guest_pages());
  for (int input = 0; input < kNumInputs; ++input)
    unified.merge_max(PageAccessCounts::from_trace(
        m.invoke(input, 550).trace, m.guest_pages()));
  unified.scale(DamonConfig{}.count_scale);
  const RegionList merged = regionize_and_merge(unified);
  const auto bins = packer(nonzero_access_regions(merged), 10);
  const TieringDecision d = choose_placement(
      env.cfg, bins, zero_access_regions(merged), m.guest_pages(),
      m.invoke(3, 551), {});
  return d.normalized_cost;
}

void print_ablation() {
  SimEnv env;
  AsciiTable t({"function", "equal-access (TOSS)", "greedy balance",
                "equal-size"});
  OnlineStats toss_costs, greedy_costs, size_costs;
  for (const FunctionModel& m : env.registry.models()) {
    const double a = min_cost_with(env, m, pack_equal_access);
    const double g = min_cost_with(env, m, pack_equal_access_greedy);
    const double s = min_cost_with(env, m, pack_equal_size);
    toss_costs.add(a);
    greedy_costs.add(g);
    size_costs.add(s);
    t.add_row({m.name(), fmt_f(a), fmt_f(g), fmt_f(s)});
  }
  std::puts(
      "Ablation: minimum normalized cost reachable per bin-construction "
      "strategy (lower is better)");
  t.print();
  std::printf("averages: equal-access %.3f, greedy %.3f, equal-size %.3f\n",
              toss_costs.mean(), greedy_costs.mean(), size_costs.mean());
  std::puts(
      "expected: density-grouped equal-access bins dominate — mixing hot "
      "pages into every bin (greedy) or ignoring access mass (equal-size) "
      "forces the optimizer to keep more memory in DRAM");
}

void BM_pack_equal_access(benchmark::State& state) {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("lr_serving");
  PageAccessCounts unified(m.guest_pages());
  unified.merge_max(PageAccessCounts::from_trace(m.invoke(3, 550).trace,
                                                 m.guest_pages()));
  const RegionList merged = regionize_and_merge(unified);
  const RegionList accessed = nonzero_access_regions(merged);
  for (auto _ : state)
    benchmark::DoNotOptimize(pack_equal_access(accessed, 10).size());
}
BENCHMARK(BM_pack_equal_access);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
