// Region merging (Section V-F): fewer regions mean fewer memory mappings at
// restore and therefore lower setup time.
//
//  - Access-count merging: after unifying access patterns, adjacent regions
//    whose per-page counts differ by < 100 merge (same slowdown result).
//  - Bins merging: after bin packing decides tiers, adjacent regions that
//    ended up in the same tier merge; TieredSnapshot::build performs this
//    implicitly by coalescing same-tier page runs, and mapping_count()
//    measures the effect.
#pragma once

#include "mem/placement.hpp"
#include "trace/pattern.hpp"
#include "trace/region.hpp"

namespace toss {

/// The paper's empirically chosen access-count merge threshold.
inline constexpr u64 kAccessMergeThreshold = 100;

/// counts -> regions -> access-count merging, in one step.
RegionList regionize_and_merge(const PageAccessCounts& counts,
                               u64 threshold = kAccessMergeThreshold);

/// Number of memory mappings a placement induces (maximal same-tier runs).
u64 mapping_count(const PagePlacement& placement);

}  // namespace toss
