#include "core/merge.hpp"

namespace toss {

RegionList regionize_and_merge(const PageAccessCounts& counts, u64 threshold) {
  return merge_similar_regions(counts.runs(), threshold);
}

}  // namespace toss
