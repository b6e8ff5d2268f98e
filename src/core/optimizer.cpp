#include "core/optimizer.hpp"

#include <algorithm>
#include <utility>

#include "core/merge.hpp"
#include "util/contracts.hpp"

namespace toss {

double derive_slowdown_threshold(const BinProfile& profile, double base_cost,
                                 double slo_slowdown) {
  size_t best_prefix = 0;
  double best_cost = base_cost;
  for (size_t k = 0; k < profile.steps.size(); ++k) {
    const BinStep& s = profile.steps[k];
    if (s.cumulative_slowdown > slo_slowdown) break;
    if (s.cumulative_cost < best_cost) {
      best_cost = s.cumulative_cost;
      best_prefix = k + 1;
    }
  }
  return best_prefix == 0
             ? 0.0
             : profile.steps[best_prefix - 1].cumulative_slowdown;
}

TieringDecision select_placement(const SystemConfig& cfg, BinProfile profile,
                                 const std::vector<Bin>& bins,
                                 const TieringOptions& options) {
  const size_t ranks = cfg.tier_count();
  const std::vector<double> ratios = cfg.rank_cost_ratios();
  TieringDecision d;
  d.profile = std::move(profile);
  d.bin_rank.assign(bins.size(), 0);

  // Prefix 0 is the base placement; its per-rank page counts give the
  // fractions PagePlacement::deep_fractions and slow_fraction would.
  const std::vector<u64> base_pages =
      d.profile.base_placement.pages_per_rank(ranks);
  const u64 guest_pages = d.profile.base_placement.num_pages();
  const auto fraction = [&](u64 pages) {
    return guest_pages > 0 ? static_cast<double>(pages) /
                                 static_cast<double>(guest_pages)
                           : 0.0;
  };
  std::vector<double> base_deep(ranks - 1);
  for (size_t rank = 1; rank < ranks; ++rank)
    base_deep[rank - 1] = fraction(base_pages[rank]);
  const double base_cost = ladder_normalized_cost(1.0, base_deep, ratios);

  // SLO -> threshold (DESIGN.md §14): a QoS class's SLO target picks the
  // cheapest configuration it admits, and that configuration's slowdown
  // becomes the effective Step-III threshold. An explicit threshold wins.
  std::optional<double> threshold = options.slowdown_threshold;
  if (!threshold && options.slo_slowdown) {
    d.derived_threshold =
        derive_slowdown_threshold(d.profile, base_cost, *options.slo_slowdown);
    threshold = d.derived_threshold;
  }

  // The progressive sweep pushes bins down the ladder coldest-first; each
  // step's cumulative Eq 1 cost is the memory cost of stopping there. The
  // minimum-cost configuration is the prefix with the lowest cumulative
  // cost (Section V-C: every descent that still lowered the cost is kept).
  // A slowdown threshold restricts the eligible prefixes to those whose
  // cumulative slowdown stays within bounds.
  size_t best_prefix = 0;  // number of applied descents; 0 = bins all fast
  double best_cost = base_cost;
  for (size_t k = 0; k < d.profile.steps.size(); ++k) {
    const BinStep& s = d.profile.steps[k];
    if (threshold && s.cumulative_slowdown > *threshold) break;
    if (s.cumulative_cost < best_cost) {
      best_cost = s.cumulative_cost;
      best_prefix = k + 1;
    }
  }

  // Rank-0 residue after each sweep prefix, in pages: only steps leaving
  // rank 0 shrink it. Feeds the demotion curve below.
  std::vector<u64> bin_pages(bins.size(), 0);
  for (size_t b = 0; b < bins.size(); ++b)
    for (const Region& r : bins[b].regions) bin_pages[b] += r.page_count;
  std::vector<u64> fast_after(d.profile.steps.size() + 1, 0);
  fast_after[0] = base_pages[0];
  for (size_t k = 0; k < d.profile.steps.size(); ++k)
    fast_after[k + 1] =
        fast_after[k] - (d.profile.steps[k].from_rank == 0
                             ? bin_pages[d.profile.steps[k].bin_index]
                             : 0);

  // Demotion floor: the arbiter re-enters placement at the next
  // demotion_curve point, which outranks the threshold preference.
  if (options.min_descent_prefix)
    best_prefix = std::max(
        best_prefix,
        std::min(*options.min_descent_prefix, d.profile.steps.size()));
  d.chosen_prefix = best_prefix;

  // Demotion curve: for each strictly smaller rank-0 footprint reachable
  // beyond the chosen prefix, the cheapest prefix at that footprint — the
  // "next local minimum" stops the arbiter demotes through, nearest
  // first. Prefixes that do not shrink rank 0 cannot relieve fast-tier
  // pressure and are folded into their footprint level.
  u64 level_pages = fast_after[best_prefix];
  for (size_t k = best_prefix + 1; k <= d.profile.steps.size(); ++k) {
    if (fast_after[k] >= level_pages) continue;
    level_pages = fast_after[k];
    // Cheapest prefix at this footprint level (ties toward the shallowest).
    size_t cheapest = k;
    for (size_t j = k + 1;
         j <= d.profile.steps.size() && fast_after[j] == fast_after[k]; ++j)
      if (d.profile.steps[j - 1].cumulative_cost <
          d.profile.steps[cheapest - 1].cumulative_cost)
        cheapest = j;
    d.demotion_curve.push_back(
        CostCurvePoint{cheapest, bytes_for_pages(fast_after[k]),
                       d.profile.steps[cheapest - 1].cumulative_slowdown,
                       d.profile.steps[cheapest - 1].cumulative_cost});
  }

  // Apply: zero regions at the deepest rung, each bin on the rung its last
  // applied descent reached, the rest at rank 0, in one pass over the
  // profile's page-ordered spans.
  for (size_t k = 0; k < best_prefix; ++k)
    d.bin_rank[d.profile.steps[k].bin_index] = d.profile.steps[k].to_rank;
  PageRuns<Tier> tiers;
  for (const BinSpan& s : d.profile.spans) {
    TOSS_REQUIRE(s.bin == kZeroSpan || s.bin < bins.size(),
                 "profile spans must be of these bins");
    const size_t rank = s.bin == kZeroSpan ? tier_rank(cfg.deepest_tier())
                                           : d.bin_rank[s.bin];
    if (rank == 0) continue;  // covered by the next gap
    TOSS_REQUIRE(s.begin >= tiers.num_pages(),
                 "profile spans must be sorted and disjoint");
    tiers.append(s.begin - tiers.num_pages(), tier_index(0));
    tiers.append(s.end - s.begin, tier_index(rank));
  }
  tiers.append(guest_pages - tiers.num_pages(), tier_index(0));
  d.placement = PagePlacement(std::move(tiers));

  // The placement is the sweep's prefix placement, so the profile already
  // measured it: prefix 0 is the base configuration, any other prefix its
  // last step.
  if (best_prefix == 0) {
    d.expected_slowdown = 0.0;
    d.slow_fraction = fraction(guest_pages - base_pages[0]);
    d.normalized_cost = base_cost;
  } else {
    const BinStep& s = d.profile.steps[best_prefix - 1];
    d.expected_slowdown = s.cumulative_slowdown;
    d.slow_fraction = s.slow_fraction;
    d.normalized_cost = s.cumulative_cost;
  }
  return d;
}

TieringDecision choose_placement(const SystemConfig& cfg,
                                 const std::vector<Bin>& bins,
                                 const RegionList& zero_regions,
                                 u64 guest_pages,
                                 const Invocation& representative,
                                 const TieringOptions& options) {
  return select_placement(
      cfg,
      BinProfiler(cfg).profile(bins, zero_regions, guest_pages,
                               representative),
      bins, options);
}

PackedPattern pack_pattern(const PageAccessCounts& unified, int bin_count) {
  const RegionList merged = regionize_and_merge(unified);
  return PackedPattern{
      zero_access_regions(merged),
      pack_equal_access(nonzero_access_regions(merged), bin_count)};
}

TieringDecision analyze_pattern(const SystemConfig& cfg,
                                const PageAccessCounts& unified,
                                const Invocation& representative,
                                const TieringOptions& options) {
  const PackedPattern packed = pack_pattern(unified, options.bin_count);
  return choose_placement(cfg, packed.bins, packed.zero_regions,
                          unified.num_pages(), representative, options);
}

}  // namespace toss
