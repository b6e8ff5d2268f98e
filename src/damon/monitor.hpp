// DAMON simulator: adaptive region-based memory access monitoring.
//
// Real DAMON samples one page per region per sampling interval and
// periodically splits/merges regions so that similar-frequency neighbors
// share a region. We reproduce that behaviour analytically: the true
// per-page counts of the invocation are quantized to the minimum region
// size, adjacent regions with similar frequency are merged (bounded by
// max_regions), and then each region's estimate is perturbed with
// sampling noise whose magnitude shrinks with the number of samples the
// invocation affords. DAMON errs per region, not per page, so the noise
// is one draw per nonzero region.
//
// The paper's configuration: 10 us sampling interval, 16 KiB minimum region
// size, ~3% monitoring overhead.
#pragma once

#include "damon/record.hpp"
#include "mem/tier.hpp"
#include "trace/burst.hpp"
#include "util/rng.hpp"

namespace toss {

struct DamonConfig {
  Nanos sampling_interval_ns = us(10);
  u64 min_region_pages = 4;  ///< 16 KiB at 4 KiB pages
  u64 max_regions = 4096;
  /// Adjacent regions whose estimated per-page counts differ by less than
  /// this relative fraction are merged during aggregation.
  double merge_similarity = 0.15;
  /// Monitoring overhead as a fraction of execution time (paper: ~3%).
  double overhead_fraction = 0.03;
  /// Scale from simulated per-page access counts to DAMON's nr_accesses
  /// units (sampling-interval hits). The paper's downstream thresholds
  /// (e.g. the <100 access-count merge) are calibrated on DAMON's scale,
  /// where warm pages score in the hundreds-to-thousands; the trace
  /// generator's raw counts are ~16x smaller.
  double count_scale = 16.0;
};

struct DamonOutput {
  DamonRecord record;
  Nanos overhead_ns = 0;  ///< added to the invocation's execution time
  u64 samples = 0;        ///< how many sampling intervals fit the run
};

class DamonMonitor {
 public:
  explicit DamonMonitor(DamonConfig cfg = {});

  const DamonConfig& config() const { return cfg_; }

  /// Monitor one invocation. `true_counts` is the invocation's exact
  /// per-page access pattern, `exec_ns` its execution time (which bounds
  /// how many samples DAMON can take). Regions are built from the exact
  /// scaled per-quantum means (equal neighbours coalesce, similar ones
  /// aggregate, then the max_regions cap); only then does `rng` draw the
  /// sampling noise: one jitter per nonzero region, in address order. The
  /// cost is O(runs of `true_counts` + regions), not O(guest pages).
  DamonOutput monitor(const PageAccessCounts& true_counts, Nanos exec_ns,
                      Rng& rng) const;

 private:
  DamonConfig cfg_;
};

}  // namespace toss
