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
  // Each burst's pages fault in order, a bitmap word at a time; every miss
  // reads its readahead window.
  for (const auto& b : trace.bursts())
    for_each_word(b.page_begin, b.page_end(), [&](u64 word, u64 mask) {
      cache.fault_word(kMemFileId, word * kWordPages, mask,
                       /*readahead=*/true);
    });
  // mincore() reports every file page the cache now holds, clipped to the
  // guest memory size.
  WorkingSet ws(num_pages);
  cache.for_each_cached_run(
      kMemFileId, num_pages,
      [&](u64 begin, u64 count) { ws.insert(begin, count); });
  return ws;
}

}  // namespace toss
