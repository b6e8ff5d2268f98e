// Per-page tier placement map for a guest address space.
//
// The optimizer produces a PagePlacement; the tiered snapshot turns its
// same-tier runs into layout entries; the access-cost model consults it per
// burst. Pages hold a tier *rank* (index into the SystemConfig ladder), so
// the map works unchanged for any ladder depth.
#pragma once

#include <vector>

#include "mem/tier.hpp"
#include "util/units.hpp"

namespace toss {

class PagePlacement {
 public:
  PagePlacement() = default;

  /// All pages start in `initial` (DRAM-only guest by default).
  explicit PagePlacement(u64 num_pages, Tier initial = tier_index(0));

  u64 num_pages() const { return static_cast<u64>(tiers_.size()); }
  u64 num_bytes() const { return bytes_for_pages(num_pages()); }

  Tier tier_of(u64 page) const { return static_cast<Tier>(tiers_[page]); }
  size_t rank_of(u64 page) const { return tiers_[page]; }
  void set(u64 page, Tier t) { tiers_[page] = static_cast<u8>(t); }
  void set_range(u64 page_begin, u64 page_count, Tier t);
  void set_all(Tier t);

  /// Number of pages currently in tier `t`.
  u64 pages_in(Tier t) const;

  /// Per-rank page counts, ascending rank order; sized `tier_count`.
  std::vector<u64> pages_per_rank(size_t tier_count) const;

  /// Fraction of bytes *not* in the fastest tier — the paper's "slow tier
  /// percentage", generalized to "offloaded anywhere down the ladder".
  double slow_fraction() const;

  /// Per-rank byte fractions for ranks 1..tier_count-1, ascending (index 0
  /// holds rank 1's fraction) — the shape ladder_normalized_cost consumes.
  std::vector<double> deep_fractions(size_t tier_count) const;

  /// Pages of [page_begin, page_begin+page_count) that are in tier `t`.
  u64 count_in_range(u64 page_begin, u64 page_count, Tier t) const;

  /// Fraction of the range not in the fastest tier.
  double slow_fraction_in_range(u64 page_begin, u64 page_count) const;

  bool operator==(const PagePlacement&) const = default;

 private:
  std::vector<u8> tiers_;
};

}  // namespace toss
