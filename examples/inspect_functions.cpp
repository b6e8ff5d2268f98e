// inspect_functions: diagnostic walk over the Table-I workload suite.
//
// For every function and input it prints the memory footprint, warm DRAM
// execution time, memory intensity (fraction of time stalled on memory, the
// paper's perf-counter proxy), and the slowdown of running fully in the
// slow tier (Fig 2's experiment). It then runs the TOSS analysis pipeline
// on an idealized unified pattern and reports the chosen tiering: slow-tier
// share, expected slowdown and normalized memory cost (Fig 5 / Table II).
//
// Usage: inspect_functions [function_name]
#include <cstdio>
#include <string>

#include "toss.hpp"

using namespace toss;

int main(int argc, char** argv) {
  const std::string only = argc > 1 ? argv[1] : "";
  const SystemConfig cfg = SystemConfig::paper_default();
  const FunctionRegistry registry = FunctionRegistry::table1();
  AccessCostModel cost_model(cfg);

  AsciiTable per_input({"function", "input", "footprint", "warm DRAM",
                        "mem intensity", "full-slow slowdown"});
  AsciiTable decisions({"function", "slow tier %", "slowdown", "norm. cost",
                        "mappings"});

  for (const FunctionModel& model : registry.models()) {
    if (!only.empty() && model.name() != only) continue;

    for (int input = 0; input < kNumInputs; ++input) {
      const Invocation inv = model.invoke(input, /*seed=*/1000 + input);
      const Nanos mem_fast = inv.trace.time_uniform(cost_model, tier_index(0));
      const Nanos mem_slow = inv.trace.time_uniform(cost_model, tier_index(1));
      const Nanos warm = inv.cpu_ns + mem_fast;
      const double slowdown = (inv.cpu_ns + mem_slow) / warm;
      const double intensity = mem_fast / warm;
      const u64 fp = bytes_for_pages(
          inv.trace.footprint_pages(model.guest_pages()));
      per_input.add_row({model.name(),
                         model.spec().input_labels[static_cast<size_t>(input)],
                         format_bytes(fp), format_nanos(warm),
                         fmt_pct(intensity), fmt_x(slowdown)});
    }

    // Idealized unified pattern: exact counts merged (max) over a few
    // invocations of every input — what a long profiling phase converges
    // to. Counts are scaled to DAMON's nr_accesses units (see DamonConfig)
    // so the analysis thresholds apply on the same scale as the paper's.
    PageAccessCounts unified(model.guest_pages());
    for (int input = 0; input < kNumInputs; ++input) {
      for (u64 rep = 0; rep < 3; ++rep) {
        const Invocation inv = model.invoke(input, 500 + rep);
        unified.merge_max(
            PageAccessCounts::from_trace(inv.trace, model.guest_pages()));
      }
    }
    unified.scale(DamonConfig{}.count_scale);
    const Invocation representative =
        model.invoke(kNumInputs - 1, /*seed=*/503);
    const TieringDecision d =
        analyze_pattern(cfg, unified, representative, TieringOptions{});
    decisions.add_row({model.name(), fmt_pct(d.slow_fraction),
                       fmt_pct(d.expected_slowdown), fmt_f(d.normalized_cost),
                       std::to_string(d.placement.runs().size())});
  }

  std::puts("Per-input behaviour (Fig 2 view):");
  per_input.print();
  std::puts("");
  std::puts("TOSS tiering decisions (Fig 5 / Table II view):");
  decisions.print();
  return 0;
}
