#include "damon/record.hpp"

namespace toss {

DamonRecord::DamonRecord(u64 num_pages, RegionList regions)
    : num_pages_(num_pages), regions_(std::move(regions)) {}

PageAccessCounts DamonRecord::to_counts() const {
  PageAccessCounts counts(num_pages_);
  for (const auto& r : regions_)
    for (u64 p = r.page_begin; p < r.page_end(); ++p)
      counts.set(p, r.accesses);
  return counts;
}

}  // namespace toss
