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

/// Append `r` to `merged`, folding it into the last region when their
/// estimated frequencies are similar, the way DAMON's aggregation step
/// does. Never merge zero with nonzero: the untouched/touched boundary is
/// the signal TOSS needs most.
void aggregate(RegionList& merged, const Region& r, double similarity) {
  if (!merged.empty()) {
    Region& last = merged.back();
    const double a = static_cast<double>(last.accesses);
    const double b = static_cast<double>(r.accesses);
    const double denom = std::max(a, b);
    const bool both_zero = last.accesses == 0 && r.accesses == 0;
    const bool similar = both_zero || (last.accesses > 0 && r.accesses > 0 &&
                                       std::abs(a - b) / denom <= similarity);
    if (similar) {
      const u64 pages = last.page_count + r.page_count;
      last.accesses = (last.total_accesses() + r.total_accesses()) / pages;
      last.page_count = pages;
      return;
    }
  }
  merged.push_back(r);
}

}  // namespace

DamonOutput DamonMonitor::monitor(const PageAccessCounts& true_counts,
                                  Nanos exec_ns, Rng& rng) const {
  const u64 num_pages = true_counts.num_pages();
  const u64 quantum = std::max<u64>(cfg_.min_region_pages, 1);

  const u64 samples = static_cast<u64>(
      std::max(1.0, exec_ns / std::max<Nanos>(cfg_.sampling_interval_ns, 1)));

  // Passes 1 and 2, fused: quantize to the minimum region size, and
  // aggregate the quanta. A quantum's estimate is the exact mean of its
  // pages' true counts in DAMON's units, rounded. Neighbours of equal
  // estimate coalesce first, so the quanta wholly inside one run of
  // `true_counts` are one region and only the quanta that straddle a run
  // boundary are summed one by one; each coalesced region then goes
  // through the aggregation rule. O(runs).
  const RegionList& runs = true_counts.runs();
  const auto estimate = [&](u64 mass, u64 count) {
    return static_cast<u64>(std::llround(static_cast<double>(mass) /
                                         static_cast<double>(count) *
                                         cfg_.count_scale));
  };
  RegionList merged;
  Region pending{0, 0, 0};
  const auto emit = [&](u64 begin, u64 count, u64 est) {
    if (pending.page_count > 0 && pending.accesses == est) {
      pending.page_count += count;
      return;
    }
    if (pending.page_count > 0)
      aggregate(merged, pending, cfg_.merge_similarity);
    pending = Region{begin, count, est};
  };
  size_t run = 0;  // the run holding page `begin`
  for (u64 begin = 0; begin < num_pages;) {
    while (runs[run].page_end() <= begin) ++run;
    const u64 run_end = runs[run].page_end();
    const u64 whole_end =
        run_end == num_pages ? num_pages : run_end / quantum * quantum;
    if (whole_end > begin) {
      emit(begin, whole_end - begin, estimate(runs[run].accesses, 1));
      begin = whole_end;
      continue;
    }
    const u64 count = std::min(quantum, num_pages - begin);
    const u64 end = begin + count;
    u64 mass = 0;
    for (size_t k = run; k < runs.size() && runs[k].page_begin < end; ++k)
      mass += runs[k].accesses * (std::min(runs[k].page_end(), end) -
                                  std::max(runs[k].page_begin, begin));
    emit(begin, count, estimate(mass, count));
    begin = end;
  }
  if (pending.page_count > 0) aggregate(merged, pending, cfg_.merge_similarity);

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

  // Pass 4: sampling noise. DAMON samples one page per region per
  // sampling interval, so it errs per region: one draw per nonzero
  // region, in address order, at most max_regions draws. Noise never
  // turns a touched region untouched.
  const double rel = std::min(noise_scale(samples) * 4.0, 0.5);
  for (Region& r : merged)
    if (r.accesses > 0)
      r.accesses = std::max<u64>(
          1, static_cast<u64>(std::llround(static_cast<double>(r.accesses) *
                                           rng.jitter(rel))));

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
