#include "damon/monitor.hpp"

#include <algorithm>
#include <cmath>

namespace toss {

DamonMonitor::DamonMonitor(DamonConfig cfg) : cfg_(cfg) {}

namespace {

/// Relative estimation error for a region observed with `samples` samples.
/// More samples => tighter estimate, mimicking DAMON's sampling statistics.
double noise_scale(u64 samples) {
  if (samples == 0) return 1.0;
  return 1.0 / std::sqrt(static_cast<double>(samples));
}

}  // namespace

DamonOutput DamonMonitor::monitor(const PageAccessCounts& true_counts,
                                  Nanos exec_ns, Rng& rng) const {
  const u64 num_pages = true_counts.num_pages();
  const u64 quantum = std::max<u64>(cfg_.min_region_pages, 1);

  const u64 samples = static_cast<u64>(
      std::max(1.0, exec_ns / std::max<Nanos>(cfg_.sampling_interval_ns, 1)));

  // Pass 1: quantize to the minimum region size. Each chunk's frequency is
  // the mean of its pages' true counts, perturbed with sampling noise.
  RegionList regions;
  regions.reserve(num_pages / quantum + 1);
  for (u64 begin = 0; begin < num_pages; begin += quantum) {
    const u64 count = std::min(quantum, num_pages - begin);
    u64 mass = 0;
    for (u64 p = begin; p < begin + count; ++p) mass += true_counts.at(p);
    double est = static_cast<double>(mass) / static_cast<double>(count) *
                 cfg_.count_scale;
    if (est > 0.0) {
      const double rel = noise_scale(samples) * 4.0;  // per-region samples
      est *= rng.jitter(std::min(rel, 0.5));
    }
    regions.push_back(
        Region{begin, count, static_cast<u64>(std::llround(est))});
  }

  // Pass 2: merge adjacent regions with similar estimated frequency, the
  // way DAMON's aggregation step does. Never merge zero with nonzero: the
  // untouched/touched boundary is the signal TOSS needs most.
  RegionList merged;
  for (const Region& r : regions) {
    if (!merged.empty()) {
      Region& last = merged.back();
      const double a = static_cast<double>(last.accesses);
      const double b = static_cast<double>(r.accesses);
      const double denom = std::max(a, b);
      const bool both_zero = last.accesses == 0 && r.accesses == 0;
      const bool similar =
          both_zero ||
          (last.accesses > 0 && r.accesses > 0 &&
           std::abs(a - b) / denom <= cfg_.merge_similarity);
      if (similar) {
        const u64 pages = last.page_count + r.page_count;
        last.accesses = (last.total_accesses() + r.total_accesses()) / pages;
        last.page_count = pages;
        continue;
      }
    }
    merged.push_back(r);
  }

  // Pass 3: if still above max_regions, force-merge the most similar
  // neighbors until under the cap (DAMON's region budget).
  while (merged.size() > cfg_.max_regions) {
    size_t best = 0;
    double best_diff = -1.0;
    for (size_t i = 0; i + 1 < merged.size(); ++i) {
      const double diff = std::abs(static_cast<double>(merged[i].accesses) -
                                   static_cast<double>(merged[i + 1].accesses));
      if (best_diff < 0.0 || diff < best_diff) {
        best_diff = diff;
        best = i;
      }
    }
    Region& a = merged[best];
    const Region& b = merged[best + 1];
    const u64 pages = a.page_count + b.page_count;
    a.accesses = (a.total_accesses() + b.total_accesses()) / pages;
    a.page_count = pages;
    merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }

  DamonOutput out;
  out.record = DamonRecord(num_pages, std::move(merged));
  out.samples = samples;
  // Overhead grows slightly with how fragmented the pattern is (rapid
  // access-pattern changes force more split/merge work), per Section V-B.
  const double fragmentation =
      static_cast<double>(out.record.region_count()) /
      std::max<double>(1.0, static_cast<double>(num_pages / quantum));
  out.overhead_ns =
      exec_ns * cfg_.overhead_fraction * (0.5 + std::min(1.0, fragmentation));
  return out;
}

}  // namespace toss
