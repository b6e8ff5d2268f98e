// Contiguous memory regions with an access count attribute.
//
// Regions are the unit TOSS reasons about: a DAMON record is a list of them,
// the access-count merger coalesces them, the bin packer distributes them,
// and the tiered snapshot lays them out as mappings (layout entries).
#pragma once

#include <vector>

#include "mem/tier.hpp"
#include "util/units.hpp"

namespace toss {

struct Region {
  u64 page_begin = 0;
  u64 page_count = 0;
  /// Access count attribute (per-page average for this region).
  u64 accesses = 0;

  u64 page_end() const { return page_begin + page_count; }
  u64 bytes() const { return bytes_for_pages(page_count); }
  /// Total access mass of the region (per-page average x pages).
  u64 total_accesses() const { return accesses * page_count; }

  bool operator==(const Region&) const = default;
};

using RegionList = std::vector<Region>;

/// Merge adjacent regions whose per-page access counts differ by less than
/// `threshold` (the paper's "Access count Merging" with threshold 100). The
/// merged region's count is the page-weighted mean of its parts.
RegionList merge_similar_regions(const RegionList& regions, u64 threshold);

/// Validate that `regions` exactly tiles [0, num_pages) without overlap.
bool regions_cover_space(const RegionList& regions, u64 num_pages);

/// Total pages across all regions.
u64 regions_total_pages(const RegionList& regions);

/// Regions with accesses == 0 / > 0, preserving order.
RegionList zero_access_regions(const RegionList& regions);
RegionList nonzero_access_regions(const RegionList& regions);

}  // namespace toss
