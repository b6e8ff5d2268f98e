// What-if explorer for tiering decisions: the knobs Sections III-V expose.
//
//  1. Slowdown threshold sweep — a latency-critical client bounds the
//     slowdown; TOSS minimizes cost within the bound (Section V-C).
//  2. Cost-ratio sweep — Equation 1 works for any tier pair; we sweep the
//     fast:slow $/MB ratio from CXL-DDR4-like (1.5) to Optane-like (2.5)
//     and beyond, showing how the minimum-cost placement shifts.
//
// Usage: tiering_explorer [function_name]   (default: pagerank)
#include <cstdio>
#include <string>

#include "toss.hpp"

using namespace toss;

namespace {

PageAccessCounts unified_pattern(const FunctionModel& m) {
  PageAccessCounts unified(m.guest_pages());
  for (int input = 0; input < kNumInputs; ++input)
    for (u64 rep = 0; rep < 3; ++rep)
      unified.merge_max(PageAccessCounts::from_trace(
          m.invoke(input, 300 + rep).trace, m.guest_pages()));
  unified.scale(DamonConfig{}.count_scale);
  return unified;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "pagerank";
  const FunctionRegistry registry = FunctionRegistry::table1();
  const FunctionModel* m = registry.find(name);
  if (!m) {
    std::fprintf(stderr, "unknown function '%s'\n", name.c_str());
    return 1;
  }

  const PageAccessCounts unified = unified_pattern(*m);
  const Invocation representative = m->invoke(kNumInputs - 1, 303);

  std::printf("function: %s (%llu MB guest)\n\n", m->name().c_str(),
              static_cast<unsigned long long>(m->spec().memory_mb));

  // 1. Slowdown threshold sweep at the paper's 2.5 cost ratio.
  {
    SystemConfig cfg = SystemConfig::paper_default();
    AsciiTable t({"slowdown threshold", "slow tier %", "actual slowdown",
                  "norm. cost"});
    for (double threshold : {0.0, 0.02, 0.05, 0.10, 0.25, 1e9}) {
      TieringOptions opt;
      if (threshold < 1e8) opt.slowdown_threshold = threshold;
      const TieringDecision d =
          analyze_pattern(cfg, unified, representative, opt);
      t.add_row({threshold < 1e8 ? fmt_pct(threshold, 0) : "unbounded",
                 fmt_pct(d.slow_fraction), fmt_pct(d.expected_slowdown),
                 fmt_f(d.normalized_cost)});
    }
    std::puts("slowdown threshold sweep (cost ratio 2.5):");
    t.print();
  }

  // 2. Cost ratio sweep (unbounded slowdown).
  {
    AsciiTable t({"fast:slow cost ratio", "optimal cost", "slow tier %",
                  "slowdown", "norm. cost"});
    for (double ratio : {1.25, 1.5, 2.0, 2.5, 4.0, 8.0}) {
      SystemConfig cfg = SystemConfig::paper_default();
      cfg.tiers[0].cost_per_mib = ratio;
      cfg.tiers[1].cost_per_mib = 1.0;
      const TieringDecision d =
          analyze_pattern(cfg, unified, representative, {});
      t.add_row({fmt_f(ratio, 2), fmt_f(optimal_normalized_cost(ratio)),
                 fmt_pct(d.slow_fraction), fmt_pct(d.expected_slowdown),
                 fmt_f(d.normalized_cost)});
    }
    std::puts("\ncost ratio sweep (cheaper slow tier => more offloading):");
    t.print();
  }

  std::puts(
      "\nreading: a tighter slowdown bound keeps more bins in DRAM and "
      "raises the memory cost; a cheaper slow tier pulls the minimum-cost "
      "placement toward full offload even for intensive functions.");
  return 0;
}
