// Figure 1: working set characterization from userfaultfd() vs DAMON,
// per input.
//
// userfaultfd gives a dual view (touched / untouched); DAMON gives graded
// access counts per region. The figure's two observations: access counts
// grow with input, and each input produces a noticeably different pattern.
// We render both views as coarse intensity strips over guest memory.
#include <benchmark/benchmark.h>

#include "common.hpp"

using namespace toss;
using namespace toss::bench;

namespace {

constexpr int kBuckets = 64;

std::string strip(const PageAccessCounts& counts, u64 max_count) {
  const u64 pages = counts.num_pages();
  std::string s;
  for (int b = 0; b < kBuckets; ++b) {
    const u64 begin = pages * static_cast<u64>(b) / kBuckets;
    const u64 end = pages * static_cast<u64>(b + 1) / kBuckets;
    u64 peak = 0;
    for (u64 p = begin; p < end; ++p) peak = std::max(peak, counts.at(p));
    if (peak == 0) {
      s += '.';
    } else {
      static const char kLevels[] = "123456789";
      const double norm = static_cast<double>(peak) /
                          static_cast<double>(std::max<u64>(max_count, 1));
      s += kLevels[std::min<size_t>(8, static_cast<size_t>(norm * 9))];
    }
  }
  return s;
}

void print_fig1() {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("json_load_dump");
  DamonMonitor damon;
  Rng rng(7);

  std::puts(
      "Fig 1: working set characterization, json_load_dump (guest memory "
      "left to right; '.'=untouched, 1-9 = access intensity)");
  AccessCostModel cost(env.cfg);
  for (int input = 0; input < kNumInputs; ++input) {
    const Invocation inv = m.invoke(input, 50 + static_cast<u64>(input));
    const PageAccessCounts true_counts =
        PageAccessCounts::from_trace(inv.trace, m.guest_pages());
    const Nanos exec =
        inv.cpu_ns + inv.trace.time_uniform(cost, tier_index(0));
    const DamonOutput out = damon.monitor(true_counts, exec, rng);

    // uffd: touched/untouched only.
    const WorkingSet ws = uffd_working_set(inv.trace, m.guest_pages());
    RegionList touched;
    u64 next = 0;
    for (const auto& [begin, count] : ws.touched_ranges()) {
      if (begin > next) touched.push_back(Region{next, begin - next, 0});
      touched.push_back(Region{begin, count, 1});
      next = begin + count;
    }
    if (next < m.guest_pages())
      touched.push_back(Region{next, m.guest_pages() - next, 0});
    const PageAccessCounts uffd(m.guest_pages(), touched);

    const PageAccessCounts est = out.record.to_counts();
    u64 peak = 0;
    for (const Region& r : est.runs()) peak = std::max(peak, r.accesses);

    std::printf("input %-3s  uffd  [%s]  WS=%s\n", roman(input),
                strip(uffd, 1).c_str(), format_bytes(ws.size_bytes()).c_str());
    std::printf("input %-3s  damon [%s]  regions=%zu, peak=%llu\n",
                roman(input), strip(est, peak).c_str(),
                out.record.region_count(),
                static_cast<unsigned long long>(peak));
  }

  // Observation check: total DAMON-observed access mass grows with input.
  std::puts("\naccess mass by input (DAMON view):");
  for (int input = 0; input < kNumInputs; ++input) {
    const Invocation inv = m.invoke(input, 50 + static_cast<u64>(input));
    const PageAccessCounts true_counts =
        PageAccessCounts::from_trace(inv.trace, m.guest_pages());
    std::printf("  input %-3s: %llu accesses, %llu touched pages\n",
                roman(input),
                static_cast<unsigned long long>(true_counts.total_accesses()),
                static_cast<unsigned long long>(true_counts.touched_pages()));
  }
}

void BM_damon_monitor(benchmark::State& state) {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("json_load_dump");
  const Invocation inv = m.invoke(3, 50);
  const PageAccessCounts counts =
      PageAccessCounts::from_trace(inv.trace, m.guest_pages());
  DamonMonitor damon;
  Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(damon.monitor(counts, ms(100), rng).samples);
}
BENCHMARK(BM_damon_monitor);

void BM_uffd_working_set(benchmark::State& state) {
  SimEnv env;
  const FunctionModel& m = *env.registry.find("json_load_dump");
  const Invocation inv = m.invoke(3, 50);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        uffd_working_set(inv.trace, m.guest_pages()).size_pages());
}
BENCHMARK(BM_uffd_working_set);

}  // namespace

int main(int argc, char** argv) {
  print_fig1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
