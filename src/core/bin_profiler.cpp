#include "core/bin_profiler.hpp"

#include <algorithm>
#include <numeric>

#include "util/contracts.hpp"

namespace toss {

namespace {

/// A bin's accesses in one burst of the representative trace.
struct BurstShare {
  size_t burst = 0;
  u64 accesses = 0;
};

}  // namespace

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

  // Every bin and zero-region span, sorted by start page. A descent moves
  // its bin wholly from rank p-1 to rank p only if no page belongs to two
  // spans, so sorted spans must not overlap.
  std::vector<BinSpan>& spans = out.spans;
  for (const Region& r : zero_regions)
    if (r.page_count > 0)
      spans.push_back(BinSpan{r.page_begin, r.page_end(), kZeroSpan});
  std::vector<u64> bin_pages(bins.size(), 0);
  for (size_t b = 0; b < bins.size(); ++b) {
    for (const Region& r : bins[b].regions) {
      bin_pages[b] += r.page_count;
      if (r.page_count > 0)
        spans.push_back(BinSpan{r.page_begin, r.page_end(), b});
    }
  }
  std::ranges::sort(spans, {}, &BinSpan::begin);
  for (size_t k = 1; k < spans.size(); ++k)
    TOSS_REQUIRE(spans[k - 1].end <= spans[k].begin,
                 "bins and zero regions must be pairwise disjoint");
  TOSS_REQUIRE(spans.empty() || spans.back().end <= guest_pages);

  // One pass over the representative trace: each burst's accesses per rank
  // under the base placement (as AccessCostModel::burst_cost sums them),
  // and each bin's accesses in every burst it overlaps. Only the spans a
  // burst's nonzero prefix meets hold any of its accesses: zero spans'
  // go to the deepest rung, the rest of the burst's to rank 0.
  const std::vector<AccessBurst>& bursts = representative.trace.bursts();
  const size_t deepest = ranks - 1;
  std::vector<RankAccesses> accesses(bursts.size());
  std::vector<std::vector<BurstShare>> shares(bins.size());
  for (size_t i = 0; i < bursts.size(); ++i) {
    const AccessBurst& b = bursts[i];
    TOSS_REQUIRE(b.page_end() <= guest_pages);
    const BurstSpread spread(b);
    const u64 end = b.page_begin + spread.nonzero_pages();
    u64 buried = 0;
    // First span ending past the burst's start, then every span it meets.
    auto it = std::upper_bound(
        spans.begin(), spans.end(), b.page_begin,
        [](u64 page, const BinSpan& s) { return page < s.end; });
    for (; it != spans.end() && it->begin < end; ++it) {
      const u64 lo = std::max(it->begin, b.page_begin);
      const u64 hi = std::min(it->end, end);
      const u64 sum = spread.sum(lo - b.page_begin, hi - b.page_begin);
      if (it->bin == kZeroSpan) {
        buried += sum;
        continue;
      }
      std::vector<BurstShare>& bin_shares = shares[it->bin];
      if (!bin_shares.empty() && bin_shares.back().burst == i)
        bin_shares.back().accesses += sum;
      else
        bin_shares.push_back(BurstShare{i, sum});
    }
    accesses[i][0] += spread.total() - buried;
    accesses[i][deepest] += buried;
  }

  // Warm time of the current configuration: burst costs summed in burst
  // order plus the CPU time, exactly as warm_exec_ns computes it.
  std::vector<Nanos> burst_ns(bursts.size());
  for (size_t i = 0; i < bursts.size(); ++i)
    burst_ns[i] = model_.cost_of(bursts[i], accesses[i]).total_ns();
  const auto exec_ns = [&] {
    Nanos total = 0;
    for (Nanos t : burst_ns) total += t;
    return representative.cpu_ns + total;
  };
  out.base_exec_ns = exec_ns();

  // Descent order within each pass: coldest access density first
  // (progressively hotter).
  std::vector<size_t> order(bins.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bins[a].density() < bins[b].density();
  });

  const std::vector<double> ratios = cfg_->rank_cost_ratios();
  const double guest_bytes = static_cast<double>(bytes_for_pages(guest_pages));
  const double pages = static_cast<double>(guest_pages);
  std::vector<u64> rank_pages = out.base_placement.pages_per_rank(ranks);
  std::vector<double> deep(ranks > 0 ? ranks - 1 : 0, 0.0);

  // Pass p (p = 1 .. ranks-1) pushes each bin from rank p-1 to rank p,
  // coldest first; a step re-costs only the bursts its bin overlaps.
  Nanos prev_exec = out.base_exec_ns;
  for (size_t pass = 1; pass < ranks; ++pass) {
    for (size_t idx : order) {
      for (const BurstShare& s : shares[idx]) {
        accesses[s.burst][pass - 1] -= s.accesses;
        accesses[s.burst][pass] += s.accesses;
        burst_ns[s.burst] =
            model_.cost_of(bursts[s.burst], accesses[s.burst]).total_ns();
      }
      rank_pages[pass - 1] -= bin_pages[idx];
      rank_pages[pass] += bin_pages[idx];
      const Nanos exec = exec_ns();

      BinStep step;
      step.bin_index = idx;
      step.from_rank = pass - 1;
      step.to_rank = pass;
      step.byte_fraction = static_cast<double>(bins[idx].bytes()) / guest_bytes;
      step.marginal_slowdown =
          out.base_exec_ns > 0 ? (exec - prev_exec) / out.base_exec_ns : 0.0;
      // Timing noise can make a configuration marginally "faster"; clamp.
      step.marginal_slowdown = std::max(0.0, step.marginal_slowdown);
      step.cumulative_slowdown =
          out.base_exec_ns > 0
              ? std::max(0.0, exec / out.base_exec_ns - 1.0)
              : 0.0;
      // PagePlacement::slow_fraction / deep_fractions over the rank counts.
      if (guest_pages > 0) {
        step.slow_fraction =
            static_cast<double>(guest_pages - rank_pages[0]) / pages;
        for (size_t rank = 1; rank < ranks; ++rank)
          deep[rank - 1] = static_cast<double>(rank_pages[rank]) / pages;
      }
      step.cumulative_cost =
          ladder_normalized_cost(1.0 + step.cumulative_slowdown, deep, ratios);
      // Per-bin V-C test, charged at the rung the bin lands on.
      step.bin_cost = bin_normalized_cost(step.marginal_slowdown,
                                          step.byte_fraction, ratios[pass - 1]);
      out.steps.push_back(step);
      prev_exec = exec;
    }
  }
  out.full_slow_exec_ns = prev_exec;
  return out;
}

}  // namespace toss
