#include "trace/region.hpp"

#include <cassert>

namespace toss {

RegionList merge_similar_regions(const RegionList& regions, u64 threshold) {
  RegionList merged;
  for (const Region& r : regions) {
    if (!merged.empty()) {
      Region& last = merged.back();
      const bool adjacent = last.page_end() == r.page_begin;
      const u64 diff =
          last.accesses > r.accesses ? last.accesses - r.accesses
                                     : r.accesses - last.accesses;
      // Never merge a zero-access region with an accessed one: the zero set
      // is placed wholesale in the slow tier before bin packing and must
      // stay separable.
      const bool zero_mix = (last.accesses == 0) != (r.accesses == 0);
      if (adjacent && !zero_mix && diff < threshold) {
        const u64 pages = last.page_count + r.page_count;
        const u64 mass = last.total_accesses() + r.total_accesses();
        last.accesses = mass / pages;
        last.page_count = pages;
        continue;
      }
    }
    merged.push_back(r);
  }
  return merged;
}

bool regions_cover_space(const RegionList& regions, u64 num_pages) {
  u64 next = 0;
  for (const Region& r : regions) {
    if (r.page_begin != next || r.page_count == 0) return false;
    next = r.page_end();
  }
  return next == num_pages;
}

u64 regions_total_pages(const RegionList& regions) {
  u64 total = 0;
  for (const Region& r : regions) total += r.page_count;
  return total;
}

RegionList zero_access_regions(const RegionList& regions) {
  RegionList out;
  for (const Region& r : regions)
    if (r.accesses == 0) out.push_back(r);
  return out;
}

RegionList nonzero_access_regions(const RegionList& regions) {
  RegionList out;
  for (const Region& r : regions)
    if (r.accesses > 0) out.push_back(r);
  return out;
}

}  // namespace toss
