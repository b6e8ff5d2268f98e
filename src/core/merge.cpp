#include "core/merge.hpp"

namespace toss {

RegionList regionize_and_merge(const PageAccessCounts& counts, u64 threshold) {
  return merge_similar_regions(counts.runs(), threshold);
}

u64 mapping_count(const PagePlacement& placement) {
  const u64 n = placement.num_pages();
  if (n == 0) return 0;
  u64 count = 1;
  for (u64 p = 1; p < n; ++p)
    if (placement.tier_of(p) != placement.tier_of(p - 1)) ++count;
  return count;
}

}  // namespace toss
