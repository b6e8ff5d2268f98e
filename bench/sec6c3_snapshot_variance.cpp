// Section VI-C-3: snapshot representability.
//
// (a) Input IV vs All Inputs snapshot: how much does the minimum cost for
//     each execution input differ between a tiered snapshot profiled only
//     on input IV and one profiled on all inputs? (paper: avg variance
//     ~7.2%; ~2.4% excluding short-running inputs and pagerank)
// (b) Input IV vs individual-input placement: how close is the bin
//     placement derived from input IV to the per-input optimal? (paper:
//     avg 6.1%; 3.3% excluding short-running outliers)
#include <benchmark/benchmark.h>

#include <cmath>

#include "common.hpp"

using namespace toss;
using namespace toss::bench;

namespace {

/// Cost of running `input` under a given placement (Eq 1 with the measured
/// warm slowdown of that input).
double cost_of(SimEnv& env, const FunctionModel& m, int input,
               const PagePlacement& placement) {
  AccessCostModel model(env.cfg);
  OnlineStats sd;
  for (int it = 0; it < 5; ++it) {
    const Invocation inv = m.invoke(input, 8800 + static_cast<u64>(it));
    const Nanos fast = inv.cpu_ns + inv.trace.time_uniform(model, tier_index(0));
    const Nanos tiered = inv.cpu_ns + inv.trace.time_under(model, placement);
    sd.add(std::max(0.0, tiered / fast - 1.0));
  }
  return normalized_memory_cost(1.0 + sd.mean(), placement.slow_fraction(),
                                env.cfg.cost_ratio());
}

void print_sec6c3() {
  SimEnv env;
  AsciiTable t({"function", "exec input", "all-inputs cost", "input-IV cost",
                "variance"});
  OnlineStats all_var, nonoutlier_var;

  std::vector<double> placement_diffs;
  for (const FunctionModel& m : env.registry.models()) {
    const auto toss_all = run_toss_to_tiered(env, m, ProfileMix::kAllInputs);
    const auto toss_iv =
        run_toss_to_tiered(env, m, ProfileMix::kInputIvOnly);

    for (int e = 0; e < kNumInputs; ++e) {
      const double ca = cost_of(env, m, e, toss_all->decision()->placement);
      const double ci = cost_of(env, m, e, toss_iv->decision()->placement);
      const double var = std::abs(ca - ci) / ca;
      all_var.add(var);
      const bool short_running =
          m.spec().cpu_ms[static_cast<size_t>(e)] < 10.0;
      if (!short_running && m.name() != "pagerank") nonoutlier_var.add(var);
      t.add_row({m.name(), roman(e), fmt_f(ca), fmt_f(ci), fmt_pct(var)});
    }

    // (b) IV-derived placement vs per-input optimal placement.
    for (int e = 0; e < kNumInputs; ++e) {
      // Per-input optimum: analyze with that input as representative.
      PageAccessCounts unified(m.guest_pages());
      for (int input = 0; input < kNumInputs; ++input)
        unified.merge_max(PageAccessCounts::from_trace(
            m.invoke(input, 8900).trace, m.guest_pages()));
      unified.scale(DamonConfig{}.count_scale);
      const TieringDecision per_input =
          analyze_pattern(env.cfg, unified, m.invoke(e, 8901), {});
      const double c_iv = cost_of(env, m, e, toss_all->decision()->placement);
      const double c_opt = cost_of(env, m, e, per_input.placement);
      if (c_opt > 0)
        placement_diffs.push_back(std::abs(c_iv - c_opt) / c_opt);
    }
  }
  std::puts(
      "Sec VI-C-3(a): minimum cost per execution input, all-inputs vs "
      "input-IV snapshot");
  t.print();
  std::printf(
      "avg cost variance: %s (paper ~7.2%%); excluding short-running & "
      "pagerank: %s (paper ~2.4%%)\n",
      fmt_pct(all_var.mean()).c_str(), fmt_pct(nonoutlier_var.mean()).c_str());
  std::printf(
      "Sec VI-C-3(b): largest-input placement vs per-input placement, avg "
      "cost difference: %s (paper ~6.1%%)\n",
      fmt_pct(mean_of(placement_diffs)).c_str());
}

void BM_cost_evaluation(benchmark::State& state) {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("lr_serving");
  const auto toss = run_toss_to_tiered(env, m, ProfileMix::kAllInputs);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        cost_of(env, m, 3, toss->decision()->placement));
}
BENCHMARK(BM_cost_evaluation);

}  // namespace

int main(int argc, char** argv) {
  print_sec6c3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
