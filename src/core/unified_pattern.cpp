#include "core/unified_pattern.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace toss {

UnifiedPattern::UnifiedPattern(u64 num_pages, double change_epsilon)
    : counts_(num_pages), change_epsilon_(change_epsilon) {}

bool UnifiedPattern::add_record(const DamonRecord& record) {
  TOSS_REQUIRE(record.num_pages() == counts_.num_pages());
  const u64 before = counts_.total_accesses();
  counts_.merge_max(record.to_counts());
  ++records_;
  // The merge's L1 distance, normalized by the merged total. A max-merge
  // never lowers a page, so the distance is the total's increase.
  const u64 after = counts_.total_accesses();
  const double distance = static_cast<double>(after - before) /
                          static_cast<double>(std::max<u64>(after, 1));
  if (distance > change_epsilon_) {
    stable_streak_ = 0;
    return true;
  }
  ++stable_streak_;
  return false;
}

}  // namespace toss
