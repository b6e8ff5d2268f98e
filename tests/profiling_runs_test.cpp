// Step II on runs against a per-page reference. PageAccessCounts holds
// maximal runs of equal count, and DAMON and the unified pattern read and
// merge those runs. Here every stage is checked for equality with a dense
// u64-per-page implementation of the same rules: the exact counts of a
// trace, DAMON's passes over materialised per-quantum means (including
// the random stream its per-region noise consumes), and the unified
// pattern's max-merge and convergence streak. The inputs are every
// Table-I function's invocations and a set of edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/unified_pattern.hpp"
#include "damon/monitor.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

using Dense = std::vector<u64>;

/// Per-page counts of a trace: each burst's materialised expansion,
/// summed where bursts overlap.
Dense dense_counts(const BurstTrace& trace, u64 num_pages) {
  Dense counts(num_pages, 0);
  for (const AccessBurst& b : trace.bursts()) {
    if (b.page_count == 0) continue;
    const std::vector<u64> spread = expand_burst_counts(b);
    for (u64 i = 0; i < b.page_count; ++i)
      counts[b.page_begin + i] += spread[i];
  }
  return counts;
}

/// Maximal runs of pages with identical counts, covering every page.
RegionList dense_runs(const Dense& counts) {
  RegionList regions;
  const u64 n = counts.size();
  u64 begin = 0;
  while (begin < n) {
    const u64 c = counts[begin];
    u64 end = begin + 1;
    while (end < n && counts[end] == c) ++end;
    regions.push_back(Region{begin, end - begin, c});
    begin = end;
  }
  return regions;
}

/// DAMON's monitor over a dense array: pass 1 materialises every 4-page
/// quantum's exact mean in DAMON's units (rounded) and coalesces equal
/// neighbours, pass 2 merges similar neighbours, pass 3 force-merges down
/// to max_regions, and pass 4 draws one noise factor per nonzero region.
DamonOutput dense_monitor(const DamonConfig& cfg, const Dense& true_counts,
                          Nanos exec_ns, Rng& rng) {
  const u64 num_pages = true_counts.size();
  const u64 quantum = std::max<u64>(cfg.min_region_pages, 1);
  const u64 samples = static_cast<u64>(
      std::max(1.0, exec_ns / std::max<Nanos>(cfg.sampling_interval_ns, 1)));

  std::vector<u64> means;
  for (u64 begin = 0; begin < num_pages; begin += quantum) {
    const u64 count = std::min(quantum, num_pages - begin);
    u64 mass = 0;
    for (u64 p = begin; p < begin + count; ++p) mass += true_counts[p];
    means.push_back(static_cast<u64>(
        std::llround(static_cast<double>(mass) / static_cast<double>(count) *
                     cfg.count_scale)));
  }
  RegionList regions;
  for (size_t q = 0; q < means.size(); ++q) {
    const u64 begin = q * quantum;
    const u64 count = std::min(quantum, num_pages - begin);
    if (!regions.empty() && regions.back().accesses == means[q]) {
      regions.back().page_count += count;
    } else {
      regions.push_back(Region{begin, count, means[q]});
    }
  }

  RegionList merged;
  for (const Region& r : regions) {
    if (!merged.empty()) {
      Region& last = merged.back();
      const double a = static_cast<double>(last.accesses);
      const double b = static_cast<double>(r.accesses);
      const bool both_zero = last.accesses == 0 && r.accesses == 0;
      const bool similar =
          both_zero || (last.accesses > 0 && r.accesses > 0 &&
                        std::abs(a - b) / std::max(a, b) <=
                            cfg.merge_similarity);
      if (similar) {
        const u64 pages = last.page_count + r.page_count;
        last.accesses = (last.total_accesses() + r.total_accesses()) / pages;
        last.page_count = pages;
        continue;
      }
    }
    merged.push_back(r);
  }

  while (merged.size() > cfg.max_regions) {
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

  const double noise =
      samples == 0 ? 1.0 : 1.0 / std::sqrt(static_cast<double>(samples));
  for (Region& r : merged) {
    if (r.accesses == 0) continue;
    const double est = static_cast<double>(r.accesses) *
                       rng.jitter(std::min(noise * 4.0, 0.5));
    r.accesses = std::max<u64>(1, static_cast<u64>(std::llround(est)));
  }

  DamonOutput out;
  out.record = DamonRecord(num_pages, std::move(merged));
  out.samples = samples;
  const double fragmentation =
      static_cast<double>(out.record.region_count()) /
      std::max<double>(1.0, static_cast<double>(num_pages / quantum));
  out.overhead_ns =
      exec_ns * cfg.overhead_fraction * (0.5 + std::min(1.0, fragmentation));
  return out;
}

/// The unified pattern over a dense array: copy it, expand the record to
/// pages, max-merge, and take the L1 distance to the copy.
class DenseUnified {
 public:
  DenseUnified(u64 num_pages, double change_epsilon)
      : counts_(num_pages, 0), change_epsilon_(change_epsilon) {}

  bool add_record(const DamonRecord& record) {
    const Dense before = counts_;
    Dense expanded(counts_.size(), 0);
    for (const Region& r : record.regions())
      for (u64 p = r.page_begin; p < r.page_end(); ++p)
        expanded[p] = r.accesses;
    for (u64 p = 0; p < counts_.size(); ++p)
      counts_[p] = std::max(counts_[p], expanded[p]);
    u64 l1 = 0, total = 0;
    for (u64 p = 0; p < counts_.size(); ++p) {
      l1 += counts_[p] > before[p] ? counts_[p] - before[p]
                                   : before[p] - counts_[p];
      total += counts_[p];
    }
    const double distance = static_cast<double>(l1) /
                            static_cast<double>(std::max<u64>(total, 1));
    if (distance > change_epsilon_) {
      stable_streak_ = 0;
      return true;
    }
    ++stable_streak_;
    return false;
  }

  const Dense& counts() const { return counts_; }
  u64 stable_streak() const { return stable_streak_; }

 private:
  Dense counts_;
  double change_epsilon_;
  u64 stable_streak_ = 0;
};

/// One profiled invocation through both implementations: the exact
/// counts, DAMON under `cfg` (both sides draw from equal generators
/// seeded with `seed`), and the merge of the resulting record into each
/// side's unified pattern.
void expect_step2_matches(const BurstTrace& trace, u64 num_pages,
                          const DamonConfig& cfg, Nanos exec_ns, u64 seed,
                          UnifiedPattern& unified, DenseUnified& reference) {
  const PageAccessCounts counts =
      PageAccessCounts::from_trace(trace, num_pages);
  const Dense dense = dense_counts(trace, num_pages);
  EXPECT_EQ(counts.runs(), dense_runs(dense));
  EXPECT_EQ(counts.num_pages(), num_pages);

  Rng rng(seed), dense_rng(seed);
  const DamonOutput out = DamonMonitor(cfg).monitor(counts, exec_ns, rng);
  const DamonOutput want = dense_monitor(cfg, dense, exec_ns, dense_rng);
  EXPECT_EQ(out.record.num_pages(), want.record.num_pages());
  EXPECT_EQ(out.record.regions(), want.record.regions());
  EXPECT_EQ(out.overhead_ns, want.overhead_ns);
  EXPECT_EQ(out.samples, want.samples);
  EXPECT_EQ(rng.next(), dense_rng.next()) << "DAMON drew a different stream";

  EXPECT_EQ(unified.add_record(out.record), reference.add_record(want.record));
  EXPECT_EQ(unified.stable_streak(), reference.stable_streak());
  EXPECT_EQ(unified.counts().runs(), dense_runs(reference.counts()));
}

TEST(ProfilingRuns, EveryTableOneInvocationMatchesThePerPageReference) {
  const FunctionRegistry reg = FunctionRegistry::table1();
  const DamonConfig cfg;
  for (const FunctionModel& m : reg.models()) {
    UnifiedPattern unified(m.guest_pages());
    DenseUnified reference(m.guest_pages(), 0.02);
    for (const u64 seed : {1u, 2u, 3u}) {
      for (int input = 0; input < kNumInputs; ++input) {
        SCOPED_TRACE(m.name() + " input " + std::to_string(input) +
                     " seed " + std::to_string(seed));
        const Invocation inv = m.invoke(input, seed);
        // Vary the run length, and with it DAMON's noise level.
        const Nanos exec_ns = inv.cpu_ns + ms(5) * (input + 1);
        expect_step2_matches(inv.trace, m.guest_pages(), cfg, exec_ns,
                             seed * 100 + static_cast<u64>(input), unified,
                             reference);
      }
    }
  }
}

TEST(ProfilingRuns, EdgeCasesMatchThePerPageReference) {
  const double kCutoff = 1e-9;  // thetas at or below it spread uniformly
  const double kFirstZipf = std::nextafter(kCutoff, 1.0);
  struct Case {
    std::string name;
    u64 pages;
    std::vector<AccessBurst> bursts;
  };
  const std::vector<Case> cases = {
      // The last quantum is short (1001 = 250 * 4 + 1), and a burst ends
      // on the guest's last page.
      {"short last quantum",
       1001,
       {{990, 11, 500, Pattern::kSequential, 0.0, 0.0},
        {0, 3, 30, Pattern::kRandom, 0.0, 0.0}}},
      // Zero/nonzero boundaries inside quanta: [4, 8) and [12, 16) each
      // hold zero and nonzero pages.
      {"boundary inside a quantum",
       64,
       {{6, 9, 900, Pattern::kSequential, 0.0, 0.0},
        {33, 2, 7, Pattern::kRandom, 0.0, 0.0}}},
      // A one-access page: under a small count_scale its quantum's mean
      // rounds to 0, so it joins the zero stretch that follows.
      {"estimate rounds to zero",
       100,
       {{0, 8, 8000, Pattern::kSequential, 0.0, 0.0},
        {8, 1, 1, Pattern::kRandom, 0.0, 0.0}}},
      // The first Zipf theta above the cut-off: near-uniform weights, so
      // long runs of equal shares; with 500 accesses every share rounds
      // to zero and page 0 holds them all.
      {"zipf just above the cut-off",
       2048,
       {{0, 1000, 12345, Pattern::kRandom, 0.0, kFirstZipf},
        {1024, 1000, 500, Pattern::kRandom, 0.0, kFirstZipf},
        {1500, 300, 777, Pattern::kRandom, 0.0, kCutoff}}},
      // Overlapping bursts sum: a Zipf head over a uniform range, and a
      // repeated burst.
      {"overlapping bursts",
       4096,
       {{100, 2000, 600000, Pattern::kRandom, 0.3, 0.9},
        {0, 3000, 9000, Pattern::kSequential, 0.0, 0.0},
        {100, 2000, 600000, Pattern::kRandom, 0.3, 0.9},
        {2999, 7, 1, Pattern::kSequential, 0.0, 1.2}}},
      {"empty trace", 40, {}},
  };
  DamonConfig small_scale;
  small_scale.count_scale = 0.1;
  DamonConfig few_regions;
  few_regions.max_regions = 3;
  const DamonConfig configs[] = {DamonConfig{}, small_scale, few_regions};
  for (const Case& c : cases) {
    for (size_t k = 0; k < std::size(configs); ++k) {
      SCOPED_TRACE(c.name + ", config " + std::to_string(k));
      UnifiedPattern unified(c.pages);
      DenseUnified reference(c.pages, 0.02);
      for (const u64 seed : {1u, 2u, 3u})
        expect_step2_matches(BurstTrace(c.bursts), c.pages, configs[k],
                             us(100) * seed, seed, unified, reference);
    }
  }
  // The rounding case really rounds: quantum [8, 12) holds one access,
  // and its mean of 0.025 rounds to 0 before any noise is drawn.
  Rng rng(1);
  const DamonOutput out = DamonMonitor(small_scale).monitor(
      PageAccessCounts::from_trace(BurstTrace(cases[2].bursts), 100), us(100),
      rng);
  EXPECT_EQ(out.record.regions().back(), (Region{8, 92, 0}));
}

}  // namespace
}  // namespace toss
