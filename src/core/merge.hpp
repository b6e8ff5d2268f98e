// Region merging (Section V-F): fewer regions mean fewer memory mappings at
// restore and therefore lower setup time.
//
//  - Access-count merging: after unifying access patterns, adjacent regions
//    whose per-page counts differ by < 100 merge (same slowdown result).
//  - Bins merging: after bin packing decides tiers, adjacent regions that
//    ended up in the same tier merge. A PagePlacement holds only maximal
//    same-tier runs, so this is implicit: TieredSnapshot::build makes one
//    mapping per run, and placement.runs().size() counts them.
#pragma once

#include "trace/pattern.hpp"
#include "trace/region.hpp"

namespace toss {

/// The paper's empirically chosen access-count merge threshold.
inline constexpr u64 kAccessMergeThreshold = 100;

/// counts -> regions -> access-count merging, in one step.
RegionList regionize_and_merge(const PageAccessCounts& counts,
                               u64 threshold = kAccessMergeThreshold);

}  // namespace toss
