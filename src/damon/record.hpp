// DAMON record: the region-granularity access pattern one monitoring run
// produces (the paper's per-invocation DAMON record file). TOSS keeps one
// record per profiled invocation and merges them into the unified access
// pattern. Each region's `accesses` is DAMON's estimated nr_accesses per
// page; the regions tile [0, num_pages) (regions_cover_space).
#pragma once

#include <cstddef>

#include "trace/pattern.hpp"
#include "trace/region.hpp"

namespace toss {

class DamonRecord {
 public:
  DamonRecord() = default;
  DamonRecord(u64 num_pages, RegionList regions);

  u64 num_pages() const { return num_pages_; }
  const RegionList& regions() const { return regions_; }
  size_t region_count() const { return regions_.size(); }

  /// The per-page view: each page counts its region's accesses.
  PageAccessCounts to_counts() const;

 private:
  u64 num_pages_ = 0;
  RegionList regions_;
};

}  // namespace toss
