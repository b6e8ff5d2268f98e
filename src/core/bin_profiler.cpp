#include "core/bin_profiler.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace toss {

Nanos BinProfiler::warm_exec_ns(const Invocation& inv,
                                const PagePlacement& placement) const {
  return inv.cpu_ns + inv.trace.time_under(model_, placement);
}

BinProfile BinProfiler::profile(const std::vector<Bin>& bins,
                                const RegionList& zero_regions,
                                u64 guest_pages,
                                const Invocation& representative) const {
  const size_t ranks = cfg_->tier_count();
  BinProfile out;
  out.base_placement = PagePlacement(guest_pages, tier_index(0));
  // Zero-access regions cost nothing to bury: straight to the deepest rung.
  for (const Region& r : zero_regions)
    out.base_placement.set_range(r.page_begin, r.page_count,
                                 cfg_->deepest_tier());

  out.base_exec_ns = warm_exec_ns(representative, out.base_placement);

  // Descent order within each pass: coldest access density first
  // (progressively hotter).
  std::vector<size_t> order(bins.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bins[a].density() < bins[b].density();
  });

  const std::vector<double> ratios = cfg_->rank_cost_ratios();
  const double guest_bytes = static_cast<double>(bytes_for_pages(guest_pages));

  // Materialize the placement of every descent prefix. Pass p (p = 1 ..
  // ranks-1) pushes each bin from rank p-1 to rank p, coldest first; the
  // placements build on each other and are cheap; the expensive part is
  // replaying the representative trace under each configuration.
  std::vector<PagePlacement> prefix_placements;
  const size_t passes = ranks > 0 ? ranks - 1 : 0;
  prefix_placements.reserve(order.size() * passes);
  {
    PagePlacement placement = out.base_placement;
    for (size_t pass = 1; pass <= passes; ++pass) {
      for (size_t idx : order) {
        for (const Region& r : bins[idx].regions)
          placement.set_range(r.page_begin, r.page_count, tier_index(pass));
        prefix_placements.push_back(placement);
      }
    }
  }
  std::vector<Nanos> prefix_exec(prefix_placements.size(), 0);
  for (size_t k = 0; k < prefix_placements.size(); ++k)
    prefix_exec[k] = warm_exec_ns(representative, prefix_placements[k]);

  for (size_t k = 0; k < prefix_placements.size(); ++k) {
    const size_t pass = order.empty() ? 1 : k / order.size() + 1;
    const Bin& bin = bins[order[k % order.size()]];
    const Nanos prev_exec = k == 0 ? out.base_exec_ns : prefix_exec[k - 1];
    const Nanos exec = prefix_exec[k];

    BinStep step;
    step.bin_index = order[k % order.size()];
    step.from_rank = pass - 1;
    step.to_rank = pass;
    step.byte_fraction = static_cast<double>(bin.bytes()) / guest_bytes;
    step.marginal_slowdown =
        out.base_exec_ns > 0 ? (exec - prev_exec) / out.base_exec_ns : 0.0;
    // Timing noise can make a configuration marginally "faster"; clamp.
    step.marginal_slowdown = std::max(0.0, step.marginal_slowdown);
    step.cumulative_slowdown =
        out.base_exec_ns > 0
            ? std::max(0.0, exec / out.base_exec_ns - 1.0)
            : 0.0;
    step.slow_fraction = prefix_placements[k].slow_fraction();
    step.cumulative_cost = ladder_normalized_cost(
        1.0 + step.cumulative_slowdown,
        prefix_placements[k].deep_fractions(ranks), ratios);
    // Per-bin V-C test, charged at the rung the bin lands on.
    step.bin_cost = bin_normalized_cost(step.marginal_slowdown,
                                        step.byte_fraction, ratios[pass - 1]);
    out.steps.push_back(step);
  }
  out.full_slow_exec_ns =
      prefix_exec.empty() ? out.base_exec_ns : prefix_exec.back();
  return out;
}

}  // namespace toss
