#include "trace/working_set.hpp"

#include "mem/page_cache.hpp"
#include "util/contracts.hpp"

namespace toss {

u64 WorkingSet::size_pages() const {
  u64 n = 0;
  for (const PageRun<bool>& r : touched_.runs())
    if (r.value) n += r.page_count;
  return n;
}

double WorkingSet::fraction() const {
  if (num_pages() == 0) return 0.0;
  return static_cast<double>(size_pages()) /
         static_cast<double>(num_pages());
}

u64 WorkingSet::missing_from(const WorkingSet& other) const {
  TOSS_REQUIRE(num_pages() == other.num_pages());
  u64 n = 0;
  for (const PageRun<bool>& r : other.touched_.runs()) {
    if (!r.value) continue;
    touched_.for_each_in(r.page_begin, r.page_count, [&](bool t, u64 pages) {
      if (!t) n += pages;
    });
  }
  return n;
}

std::vector<std::pair<u64, u64>> WorkingSet::touched_ranges() const {
  std::vector<std::pair<u64, u64>> ranges;
  for (const PageRun<bool>& r : touched_.runs())
    if (r.value) ranges.emplace_back(r.page_begin, r.page_count);
  return ranges;
}

WorkingSet uffd_working_set(const BurstTrace& trace, u64 num_pages) {
  WorkingSet ws(num_pages);
  for (const auto& b : trace.bursts()) {
    TOSS_REQUIRE(b.page_end() <= num_pages);
    ws.insert(b.page_begin, b.page_count);
  }
  return ws;
}

WorkingSet mincore_working_set(const BurstTrace& trace, u64 num_pages,
                               u64 readahead_pages) {
  HostPageCache cache(readahead_pages);
  constexpr u64 kMemFileId = 1;
  for (const auto& b : trace.bursts()) {
    for (u64 p = b.page_begin; p < b.page_end(); ++p) {
      if (!cache.contains(kMemFileId, p)) cache.fill(kMemFileId, p);
    }
  }
  // mincore() reports every file page the cache now holds, clipped to the
  // guest memory size.
  WorkingSet ws(num_pages);
  for (u64 p = 0; p < num_pages;) {
    if (!cache.contains(kMemFileId, p)) {
      ++p;
      continue;
    }
    u64 end = p + 1;
    while (end < num_pages && cache.contains(kMemFileId, end)) ++end;
    ws.insert(p, end - p);
    p = end;
  }
  return ws;
}

}  // namespace toss
