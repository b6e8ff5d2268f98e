// Figure 6: slowdown vs memory cost as bins move to the slow tier one at a
// time (sorted by memory cost efficiency), for the five functions with the
// worst Fig-2 slowdown, across all inputs.
//
// Paper shape: larger inputs accumulate more slowdown (confirming the
// longest-request choice for bin profiling), and memory cost is
// proportional to input size (the largest input upper-bounds the cost).
#include <benchmark/benchmark.h>

#include "common.hpp"

using namespace toss;
using namespace toss::bench;

namespace {

const char* kWorstFive[] = {"pagerank", "matmul", "lr_serving", "linpack",
                            "image_processing"};

void print_fig6() {
  SimEnv env;
  std::puts(
      "Fig 6: cumulative slowdown / normalized cost per offloaded bin "
      "(bins coldest-first; 10 bins per function)");
  for (const char* name : kWorstFive) {
    const FunctionModel& m = *env.registry.find(name);
    // Unified pattern over all inputs (idealized profiling output).
    PageAccessCounts unified(m.guest_pages());
    for (int input = 0; input < kNumInputs; ++input)
      for (u64 rep = 0; rep < 2; ++rep)
        unified.merge_max(PageAccessCounts::from_trace(
            m.invoke(input, 70 + rep).trace, m.guest_pages()));
    unified.scale(DamonConfig{}.count_scale);

    const RegionList merged = regionize_and_merge(unified);
    const auto bins = pack_equal_access(nonzero_access_regions(merged), 10);
    BinProfiler profiler(env.cfg);

    std::printf("\n%s:\n", name);
    AsciiTable t({"input", "metric", "b1", "b2", "b3", "b4", "b5", "b6",
                  "b7", "b8", "b9", "b10"});
    for (int input = 0; input < kNumInputs; ++input) {
      const Invocation inv = m.invoke(input, 72);
      const BinProfile profile = profiler.profile(
          bins, zero_access_regions(merged), m.guest_pages(), inv);
      std::vector<std::string> sd_row{roman(input), "slowdown"};
      std::vector<std::string> cost_row{roman(input), "cost"};
      for (const BinStep& s : profile.steps) {
        sd_row.push_back(fmt_pct(s.cumulative_slowdown, 0));
        cost_row.push_back(fmt_f(s.cumulative_cost));
      }
      t.add_row(sd_row);
      t.add_row(cost_row);
    }
    t.print();
  }
}

void BM_bin_profile_sweep(benchmark::State& state) {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("matmul");
  PageAccessCounts unified(m.guest_pages());
  for (int input = 0; input < kNumInputs; ++input)
    unified.merge_max(PageAccessCounts::from_trace(
        m.invoke(input, 70).trace, m.guest_pages()));
  unified.scale(DamonConfig{}.count_scale);
  const RegionList merged = regionize_and_merge(unified);
  const auto bins = pack_equal_access(nonzero_access_regions(merged), 10);
  const auto zeros = zero_access_regions(merged);
  const Invocation rep = m.invoke(3, 72);
  BinProfiler profiler(env.cfg);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        profiler.profile(bins, zeros, m.guest_pages(), rep).steps.size());
}
BENCHMARK(BM_bin_profile_sweep);

}  // namespace

int main(int argc, char** argv) {
  print_fig6();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
