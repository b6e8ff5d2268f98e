#include "trace/pattern.hpp"

#include <algorithm>

#include "trace/burst.hpp"
#include "util/contracts.hpp"

namespace toss {

namespace {

/// Append pages [begin, end) at `count`, extending the last run on a tie,
/// so the list stays maximal.
void append_run(RegionList& runs, u64 begin, u64 end, u64 count) {
  if (end <= begin) return;
  if (!runs.empty() && runs.back().accesses == count) {
    runs.back().page_count += end - begin;
    return;
  }
  runs.push_back(Region{begin, end - begin, count});
}

}  // namespace

PageAccessCounts::PageAccessCounts(u64 num_pages) : num_pages_(num_pages) {
  append_run(runs_, 0, num_pages, 0);
}

PageAccessCounts::PageAccessCounts(u64 num_pages, const RegionList& regions)
    : num_pages_(num_pages) {
  TOSS_REQUIRE(regions_cover_space(regions, num_pages));
  runs_.reserve(regions.size());
  for (const Region& r : regions)
    append_run(runs_, r.page_begin, r.page_end(), r.accesses);
}

u64 PageAccessCounts::at(u64 page) const {
  TOSS_REQUIRE(page < num_pages_);
  const auto after = std::upper_bound(
      runs_.begin(), runs_.end(), page,
      [](u64 p, const Region& r) { return p < r.page_begin; });
  return std::prev(after)->accesses;
}

u64 PageAccessCounts::touched_pages() const {
  u64 n = 0;
  for (const Region& r : runs_)
    if (r.accesses > 0) n += r.page_count;
  return n;
}

u64 PageAccessCounts::total_accesses() const {
  u64 total = 0;
  for (const Region& r : runs_) total += r.total_accesses();
  return total;
}

void PageAccessCounts::merge_max(const PageAccessCounts& other) {
  TOSS_REQUIRE(num_pages_ == other.num_pages_);
  RegionList merged;
  merged.reserve(runs_.size() + other.runs_.size());
  size_t i = 0, j = 0;
  for (u64 page = 0; page < num_pages_;) {
    const Region& a = runs_[i];
    const Region& b = other.runs_[j];
    const u64 end = std::min(a.page_end(), b.page_end());
    append_run(merged, page, end, std::max(a.accesses, b.accesses));
    page = end;
    if (a.page_end() == end) ++i;
    if (b.page_end() == end) ++j;
  }
  runs_ = std::move(merged);
}

void PageAccessCounts::scale(double factor) {
  RegionList scaled;
  scaled.reserve(runs_.size());
  for (const Region& r : runs_)
    append_run(scaled, r.page_begin, r.page_end(),
               static_cast<u64>(static_cast<double>(r.accesses) * factor));
  runs_ = std::move(scaled);
}

PageAccessCounts PageAccessCounts::from_trace(const BurstTrace& trace,
                                              u64 num_pages) {
  // Each burst adds a step function, constant on its runs. Every run
  // becomes a rise at its first page and a fall past its last; sweeping
  // the edges in page order sums the bursts that overlap.
  struct Edge {
    u64 page;
    u64 count;
    bool rise;
  };
  std::vector<Edge> edges;
  for (const AccessBurst& b : trace.bursts()) {
    TOSS_REQUIRE(b.page_end() <= num_pages);
    const BurstSpread spread(b);
    for (u64 i = 0; i < spread.nonzero_pages();) {
      const u64 end = spread.run_end(i);
      const u64 count = spread.at(i);
      edges.push_back(Edge{b.page_begin + i, count, true});
      edges.push_back(Edge{b.page_begin + end, count, false});
      i = end;
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.page < b.page; });

  PageAccessCounts counts;
  counts.num_pages_ = num_pages;
  u64 level = 0;  // the summed count from `page` on
  u64 page = 0;
  for (const Edge& e : edges) {
    append_run(counts.runs_, page, e.page, level);
    page = e.page;
    // Every fall at this page belongs to a run that rose before it, so
    // the level never dips below zero whatever the order of the edges.
    level = e.rise ? level + e.count : level - e.count;
  }
  TOSS_ASSERT(level == 0, "a burst run rose without falling");
  append_run(counts.runs_, page, num_pages, 0);
  return counts;
}

}  // namespace toss
