#include "trace/burst.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace toss {

BurstTrace::BurstTrace(std::vector<AccessBurst> bursts)
    : bursts_(std::move(bursts)) {}

void BurstTrace::push_back(AccessBurst b) { bursts_.push_back(b); }

u64 BurstTrace::total_accesses() const {
  u64 total = 0;
  for (const auto& b : bursts_) total += b.accesses;
  return total;
}

u64 BurstTrace::max_page_end() const {
  u64 end = 0;
  for (const auto& b : bursts_) end = std::max(end, b.page_end());
  return end;
}

u64 BurstTrace::footprint_pages(u64 num_guest_pages) const {
  std::vector<bool> touched(num_guest_pages, false);
  u64 n = 0;
  for (const auto& b : bursts_) {
    TOSS_REQUIRE(b.page_end() <= num_guest_pages);
    for (u64 p = b.page_begin; p < b.page_end(); ++p) {
      if (!touched[p]) {
        touched[p] = true;
        ++n;
      }
    }
  }
  return n;
}

Nanos BurstTrace::time_under(const AccessCostModel& model,
                             const PagePlacement& placement) const {
  Nanos total = 0;
  for (const auto& b : bursts_)
    if (b.page_count > 0)
      total += model.burst_time(b, expand_burst_counts(b), placement);
  return total;
}

Nanos BurstTrace::time_uniform(const AccessCostModel& model, Tier t) const {
  return model.trace_time_uniform(bursts_, t);
}

}  // namespace toss
