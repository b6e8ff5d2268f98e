// Per-page access counts over a guest address space, held as runs.
//
// This is the common currency between the profilers (DAMON, userfaultfd,
// mincore), the unified access pattern of TOSS, and the region/bin pipeline.
// It keeps no per-page array: the counts are the maximal runs of equal
// count that tile [0, num_pages), so every operation here costs O(runs)
// whatever the guest size.
#pragma once

#include "trace/region.hpp"
#include "util/units.hpp"

namespace toss {

class BurstTrace;

class PageAccessCounts {
 public:
  PageAccessCounts() = default;
  /// Every page at zero.
  explicit PageAccessCounts(u64 num_pages);
  /// The counts of `regions`, which must tile [0, num_pages)
  /// (regions_cover_space); adjacent regions of equal count coalesce.
  PageAccessCounts(u64 num_pages, const RegionList& regions);

  u64 num_pages() const { return num_pages_; }

  /// The maximal runs of equal count, in page order, tiling
  /// [0, num_pages).
  const RegionList& runs() const { return runs_; }

  /// One page's count (a binary search over the runs).
  u64 at(u64 page) const;

  /// Number of pages with a nonzero count.
  u64 touched_pages() const;

  /// Sum of all counts.
  u64 total_accesses() const;

  /// Merge by per-page max. This is how TOSS unifies access patterns across
  /// invocations: max keeps the pattern representative of the most intense
  /// behaviour seen while remaining idempotent (so convergence is
  /// well-defined), unlike a sum which grows forever.
  void merge_max(const PageAccessCounts& other);

  /// Scale every count by `factor`, rounding down:
  /// count -> static_cast<u64>(static_cast<double>(count) * factor).
  /// DamonConfig::count_scale takes exact counts to DAMON's units this way.
  void scale(double factor);

  bool operator==(const PageAccessCounts&) const = default;

  /// Build counts from a trace (guest size = num_pages): a sweep over the
  /// bursts' runs of equal count, summing where bursts overlap.
  static PageAccessCounts from_trace(const BurstTrace& trace, u64 num_pages);

 private:
  u64 num_pages_ = 0;
  RegionList runs_;
};

}  // namespace toss
