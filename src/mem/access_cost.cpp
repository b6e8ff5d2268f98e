#include "mem/access_cost.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "util/contracts.hpp"

namespace toss {

namespace {

/// Zipf weights w[i] = 1 / (i+1)^theta and their running sums, for one
/// theta, grown on demand. A page's weight depends only on theta, and the
/// normalizer of an n-page burst is the running sum at page n-1 (summed in
/// page order, exactly as a direct loop would), so the table reproduces
/// the direct computation bit for bit without a std::pow per page.
struct ZipfTable {
  double theta = 0.0;
  std::vector<double> weight;
  std::vector<double> running_sum;
};

/// Distinct thetas kept per thread; the workloads use a handful.
constexpr size_t kMaxZipfTables = 16;

/// Bumped whenever this thread's tables may have moved their weights
/// (a table grew, or all were cleared): what a BurstSpread checks that it
/// still reads live memory.
thread_local u64 zipf_generation = 0;

const ZipfTable& zipf_table(double theta, u64 pages) {
  // Per thread: lanes run on executor workers, and a private table needs
  // no lock on the hot path. Contents depend only on theta, never on
  // which thread grew them, so results stay deterministic.
  thread_local std::vector<ZipfTable> tables;
  auto it = std::find_if(tables.begin(), tables.end(),
                         [&](const ZipfTable& t) { return t.theta == theta; });
  if (it == tables.end()) {
    if (tables.size() >= kMaxZipfTables) {
      tables.clear();
      ++zipf_generation;
    }
    tables.push_back(ZipfTable{theta, {}, {}});
    it = tables.end() - 1;
  }
  ZipfTable& t = *it;
  if (t.weight.size() < pages) {
    ++zipf_generation;
    t.weight.reserve(pages);
    t.running_sum.reserve(pages);
    double z = t.running_sum.empty() ? 0.0 : t.running_sum.back();
    for (u64 i = t.weight.size(); i < pages; ++i) {
      const double w = 1.0 / std::pow(static_cast<double>(i + 1), theta);
      z += w;
      t.weight.push_back(w);
      t.running_sum.push_back(z);
    }
  }
  return t;
}

}  // namespace

std::vector<u64> expand_burst_counts(const AccessBurst& burst) {
  TOSS_REQUIRE(burst.page_count > 0);
  std::vector<u64> counts(burst.page_count, 0);
  if (burst.accesses == 0) return counts;
  if (burst.zipf_theta <= 1e-9) {
    // Uniform spread with the remainder going to the leading pages.
    const u64 base = burst.accesses / burst.page_count;
    const u64 rem = burst.accesses % burst.page_count;
    for (u64 i = 0; i < burst.page_count; ++i)
      counts[i] = base + (i < rem ? 1 : 0);
    return counts;
  }
  // Zipf weights by page index (page 0 hottest). Normalize to the total
  // access count; rounding drift is folded into page 0.
  const ZipfTable& table = zipf_table(burst.zipf_theta, burst.page_count);
  const double z = table.running_sum[burst.page_count - 1];
  u64 assigned = 0;
  for (u64 i = 0; i < burst.page_count; ++i) {
    counts[i] = static_cast<u64>(
        static_cast<double>(burst.accesses) * table.weight[i] / z);
    assigned += counts[i];
  }
  counts[0] += burst.accesses - assigned;
  return counts;
}

BurstSpread::BurstSpread(const AccessBurst& b) {
  if (b.page_count == 0 || b.accesses == 0) return;
  total_ = b.accesses;
  if (b.zipf_theta <= 1e-9) {
    base_ = b.accesses / b.page_count;
    rem_ = b.accesses % b.page_count;
    nonzero_ = base_ > 0 ? b.page_count : rem_;
    return;
  }
  // Shares never rise with the page index, so the first empty page ends
  // the nonzero prefix (a binary search finds it); page 0 holds the drift
  // and is never empty.
  const ZipfTable& table = zipf_table(b.zipf_theta, b.page_count);
  table_generation_ = zipf_generation;
  weight_ = table.weight.data();
  accesses_ = static_cast<double>(b.accesses);
  z_ = table.running_sum[b.page_count - 1];
  u64 lo = 1, hi = b.page_count;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    if (zipf_share(mid) == 0)
      hi = mid;
    else
      lo = mid + 1;
  }
  nonzero_ = lo;
  const u64 first = static_cast<u64>(accesses_ * weight_[0] / z_);
  u64 assigned = first;
  for (u64 i = 1; i < nonzero_;) {
    const u64 end = zipf_run_end(i);
    assigned += zipf_share(i) * (end - i);
    i = end;
  }
  head_ = first + (b.accesses - assigned);
}

bool BurstSpread::table_live() const {
  return table_generation_ == zipf_generation;
}

u64 BurstSpread::zipf_run_end(u64 i) const {
  // Gallop until a page falls below page i's share, then bisect the last
  // step: O(log length) shares per run.
  const u64 share = zipf_share(i);
  u64 in = i;          // last page known to hold `share`
  u64 out = nonzero_;  // first page known not to (or the prefix end)
  for (u64 step = 1; in + step < out; step *= 2) {
    if (zipf_share(in + step) != share) {
      out = in + step;
      break;
    }
    in += step;
  }
  while (out - in > 1) {
    const u64 mid = in + (out - in) / 2;
    if (zipf_share(mid) == share)
      in = mid;
    else
      out = mid;
  }
  return out;
}

u64 BurstSpread::run_end(u64 i) const {
  TOSS_REQUIRE(i < nonzero_);
  if (weight_ == nullptr) return i < rem_ ? rem_ : nonzero_;
  TOSS_ASSERT(table_live(), "BurstSpread outlived its Zipf table");
  if (i > 0) return zipf_run_end(i);
  // Page 0 carries the drift, so it joins page 1's run only on a tie.
  return nonzero_ > 1 && head_ == zipf_share(1) ? zipf_run_end(1) : 1;
}

u64 BurstSpread::sum(u64 lo, u64 hi) const {
  hi = std::min(hi, nonzero_);
  if (lo >= hi) return 0;
  if (weight_ == nullptr)
    return base_ * (hi - lo) + (lo < rem_ ? std::min(hi, rem_) - lo : 0);
  TOSS_ASSERT(table_live(), "BurstSpread outlived its Zipf table");
  u64 total = 0;
  if (lo == 0) {
    total = head_;
    lo = 1;
  }
  for (u64 i = lo; i < hi; ++i) total += zipf_share(i);
  return total;
}

Nanos AccessCostModel::access_cost(Tier t, Pattern pattern,
                                   double write_fraction) const {
  const TierSpec& spec = cfg_->tier(t);
  const double wf = write_fraction;
  if (pattern == Pattern::kSequential) {
    const Nanos read = static_cast<double>(kCacheLine) / spec.read_bw_bytes_per_ns;
    const Nanos write = static_cast<double>(kCacheLine) / spec.write_bw_bytes_per_ns;
    return (1.0 - wf) * read + wf * write;
  }
  const Nanos read = spec.read_latency_ns / spec.mlp;
  const Nanos write = spec.write_latency_ns / spec.mlp;
  return (1.0 - wf) * read + wf * write;
}

Nanos AccessCostModel::burst_time_uniform(const AccessBurst& b, Tier t) const {
  return static_cast<double>(b.accesses) *
         access_cost(t, b.pattern, b.write_fraction);
}

Nanos AccessCostModel::burst_time(const AccessBurst& b,
                                  const std::vector<u64>& counts,
                                  const PagePlacement& placement) const {
  return burst_cost(b, counts, placement).total_ns();
}

BurstCost AccessCostModel::burst_cost(const AccessBurst& b,
                                      const std::vector<u64>& counts,
                                      const PagePlacement& placement) const {
  TOSS_REQUIRE(counts.size() == b.page_count);
  TOSS_REQUIRE(b.page_end() <= placement.num_pages());
  const size_t ranks = cfg_->tier_count();
  RankAccesses accesses{};
  auto next = counts.begin();
  placement.for_each_in(b.page_begin, b.page_count, [&](Tier t, u64 pages) {
    const size_t rank = tier_rank(t);
    TOSS_ASSERT(rank < ranks, "placement rank outside the ladder");
    const auto end = next + static_cast<std::ptrdiff_t>(pages);
    accesses[rank] = std::accumulate(next, end, accesses[rank]);
    next = end;
  });
  return cost_of(b, accesses);
}

BurstCost AccessCostModel::cost_of(const AccessBurst& b,
                                   const RankAccesses& accesses) const {
  const size_t ranks = cfg_->tier_count();
  BurstCost cost;
  for (size_t rank = 0; rank < ranks; ++rank) {
    cost.tier_ns[rank] =
        static_cast<double>(accesses[rank]) *
        access_cost(tier_index(rank), b.pattern, b.write_fraction);
    // Device bandwidth demand: sequential streams move cache lines; random
    // streams move the tier's internal access granularity per miss.
    const TierSpec& spec = cfg_->tiers[rank];
    const double unit = b.pattern == Pattern::kSequential
                            ? static_cast<double>(kCacheLine)
                            : spec.random_granularity_bytes;
    const double bytes = static_cast<double>(accesses[rank]) * unit;
    cost.tier_read_bytes[rank] = bytes * (1.0 - b.write_fraction);
    cost.tier_write_bytes[rank] = bytes * b.write_fraction;
  }
  return cost;
}

Nanos AccessCostModel::trace_time_uniform(const std::vector<AccessBurst>& trace,
                                          Tier t) const {
  Nanos total = 0;
  for (const auto& b : trace) total += burst_time_uniform(b, t);
  return total;
}

}  // namespace toss
