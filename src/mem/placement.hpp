// Tier placement of a guest address space, as the maximal runs of pages
// that share a tier.
//
// The optimizer produces a PagePlacement; the tiered snapshot turns each of
// its runs into a layout entry; the access-cost model sums a burst's
// accesses per run. Pages hold a tier *rank* (index into the SystemConfig
// ladder), so the map works unchanged for any ladder depth. Placements
// hold a few dozen runs, so every read and write costs O(runs).
#pragma once

#include <utility>
#include <vector>

#include "mem/tier.hpp"
#include "util/page_runs.hpp"

namespace toss {

class PagePlacement {
 public:
  PagePlacement() = default;

  /// All pages start in `initial` (DRAM-only guest by default).
  explicit PagePlacement(u64 num_pages, Tier initial = tier_index(0))
      : tiers_(num_pages, initial) {}
  /// The placement whose pages are at `tiers`.
  explicit PagePlacement(PageRuns<Tier> tiers) : tiers_(std::move(tiers)) {}

  u64 num_pages() const { return tiers_.num_pages(); }

  /// The maximal same-tier runs, in page order: one memory mapping each.
  const std::vector<PageRun<Tier>>& runs() const { return tiers_.runs(); }

  /// One page's rank (a binary search over the runs).
  size_t rank_of(u64 page) const { return tier_rank(tiers_.at(page)); }

  /// Calls f(tier, pages) for each run's part inside
  /// [page_begin, page_begin + page_count), in page order.
  template <class F>
  void for_each_in(u64 page_begin, u64 page_count, F&& f) const {
    tiers_.for_each_in(page_begin, page_count, f);
  }

  void set_range(u64 page_begin, u64 page_count, Tier t) {
    tiers_.assign(page_begin, page_count, t);
  }

  /// Per-rank page counts, ascending rank order; sized `tier_count`.
  std::vector<u64> pages_per_rank(size_t tier_count) const;

  /// Fraction of bytes *not* in the fastest tier — the paper's "slow tier
  /// percentage", generalized to "offloaded anywhere down the ladder".
  double slow_fraction() const;

  /// Per-rank byte fractions for ranks 1..tier_count-1, ascending (index 0
  /// holds rank 1's fraction) — the shape ladder_normalized_cost consumes.
  std::vector<double> deep_fractions(size_t tier_count) const;

  bool operator==(const PagePlacement&) const = default;

 private:
  PageRuns<Tier> tiers_;
};

}  // namespace toss
