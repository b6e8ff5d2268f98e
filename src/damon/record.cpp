#include "damon/record.hpp"

namespace toss {

DamonRecord::DamonRecord(u64 num_pages, RegionList regions)
    : num_pages_(num_pages), regions_(std::move(regions)) {}

PageAccessCounts DamonRecord::to_counts() const {
  return PageAccessCounts(num_pages_, regions_);
}

}  // namespace toss
