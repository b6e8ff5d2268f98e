#include "mem/placement.hpp"

#include "util/contracts.hpp"

namespace toss {

std::vector<u64> PagePlacement::pages_per_rank(size_t tier_count) const {
  std::vector<u64> counts(tier_count, 0);
  for (const PageRun<Tier>& r : runs()) {
    TOSS_ASSERT(tier_rank(r.value) < tier_count,
                "placement rank outside the ladder");
    counts[tier_rank(r.value)] += r.page_count;
  }
  return counts;
}

double PagePlacement::slow_fraction() const {
  if (num_pages() == 0) return 0.0;
  u64 deep = 0;
  for (const PageRun<Tier>& r : runs())
    if (tier_rank(r.value) != 0) deep += r.page_count;
  return static_cast<double>(deep) / static_cast<double>(num_pages());
}

std::vector<double> PagePlacement::deep_fractions(size_t tier_count) const {
  std::vector<double> fracs(tier_count > 0 ? tier_count - 1 : 0, 0.0);
  if (num_pages() == 0) return fracs;
  const std::vector<u64> counts = pages_per_rank(tier_count);
  for (size_t rank = 1; rank < tier_count; ++rank)
    fracs[rank - 1] = static_cast<double>(counts[rank]) /
                      static_cast<double>(num_pages());
  return fracs;
}

}  // namespace toss
