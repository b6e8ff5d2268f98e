#include "mem/placement.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace toss {

PagePlacement::PagePlacement(u64 num_pages, Tier initial)
    : tiers_(num_pages, static_cast<u8>(initial)) {}

void PagePlacement::set_range(u64 page_begin, u64 page_count, Tier t) {
  TOSS_REQUIRE(page_begin + page_count <= num_pages());
  const auto first = tiers_.begin() + static_cast<std::ptrdiff_t>(page_begin);
  std::fill(first, first + static_cast<std::ptrdiff_t>(page_count),
            static_cast<u8>(t));
}

void PagePlacement::set_all(Tier t) {
  for (auto& v : tiers_) v = static_cast<u8>(t);
}

u64 PagePlacement::pages_in(Tier t) const {
  u64 n = 0;
  for (u8 v : tiers_)
    if (v == static_cast<u8>(t)) ++n;
  return n;
}

std::vector<u64> PagePlacement::pages_per_rank(size_t tier_count) const {
  std::vector<u64> counts(tier_count, 0);
  for (u8 v : tiers_) {
    TOSS_ASSERT(v < tier_count, "placement rank outside the ladder");
    ++counts[v];
  }
  return counts;
}

double PagePlacement::slow_fraction() const {
  if (tiers_.empty()) return 0.0;
  u64 deep = 0;
  for (u8 v : tiers_)
    if (v != 0) ++deep;
  return static_cast<double>(deep) / static_cast<double>(num_pages());
}

std::vector<double> PagePlacement::deep_fractions(size_t tier_count) const {
  std::vector<double> fracs(tier_count > 0 ? tier_count - 1 : 0, 0.0);
  if (tiers_.empty()) return fracs;
  const std::vector<u64> counts = pages_per_rank(tier_count);
  for (size_t rank = 1; rank < tier_count; ++rank)
    fracs[rank - 1] = static_cast<double>(counts[rank]) /
                      static_cast<double>(num_pages());
  return fracs;
}

u64 PagePlacement::count_in_range(u64 page_begin, u64 page_count,
                                  Tier t) const {
  TOSS_REQUIRE(page_begin + page_count <= num_pages());
  u64 n = 0;
  for (u64 p = page_begin; p < page_begin + page_count; ++p)
    if (tiers_[p] == static_cast<u8>(t)) ++n;
  return n;
}

double PagePlacement::slow_fraction_in_range(u64 page_begin,
                                             u64 page_count) const {
  TOSS_REQUIRE(page_begin + page_count <= num_pages());
  if (page_count == 0) return 0.0;
  u64 deep = 0;
  for (u64 p = page_begin; p < page_begin + page_count; ++p)
    if (tiers_[p] != 0) ++deep;
  return static_cast<double>(deep) / static_cast<double>(page_count);
}

}  // namespace toss
