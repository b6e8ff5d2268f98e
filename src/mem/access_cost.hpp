// Burst-level memory access cost model.
//
// The workload models emit *access bursts*: contiguous guest-page ranges with
// a number of LLC-missing accesses, a pattern (sequential/random), a write
// mix, and an intra-region skew. The cost model turns a burst plus a tier
// placement into simulated time. Sequential streams are bandwidth-limited;
// random streams are latency-limited but overlapped by the tier's
// memory-level parallelism.
#pragma once

#include <array>
#include <vector>

#include "mem/placement.hpp"
#include "mem/tier.hpp"
#include "util/contracts.hpp"

namespace toss {

enum class Pattern : u8 {
  kSequential = 0,  ///< streaming: cost = bytes / bandwidth
  kRandom = 1,      ///< pointer-chasing-ish: cost = latency / MLP per access
};

inline const char* pattern_name(Pattern p) {
  return p == Pattern::kSequential ? "seq" : "rand";
}

/// One burst of memory activity over a contiguous guest page range.
struct AccessBurst {
  u64 page_begin = 0;
  u64 page_count = 0;
  u64 accesses = 0;  ///< LLC-missing cache-line accesses in this burst
  Pattern pattern = Pattern::kSequential;
  double write_fraction = 0.0;  ///< 0 = all reads, 1 = all writes
  /// Zipf skew of accesses across the pages of the range; 0 = uniform.
  /// Hotter pages are placed at the start of the range (allocation order),
  /// so hot subsets form contiguous prefixes like real heaps do.
  double zipf_theta = 0.0;

  u64 page_end() const { return page_begin + page_count; }
  u64 bytes() const { return bytes_for_pages(page_count); }

  bool operator==(const AccessBurst&) const = default;
};

/// Deterministically expand a burst into per-page access counts
/// (length == burst.page_count). The counts sum to exactly
/// burst.accesses. This is the materialised reference; the simulator's
/// own paths read bursts through BurstSpread.
std::vector<u64> expand_burst_counts(const AccessBurst& burst);

/// A burst's per-page access counts, read without materialising them:
/// at(i) is expand_burst_counts(b)[i] and sum(lo, hi) its sum over burst
/// pages [lo, hi), exactly. The nonzero pages are exactly the prefix
/// [0, nonzero_pages()): the uniform remainder goes to the leading pages,
/// and Zipf weights fall with the page index. Counts never rise with the
/// page index past page 0, so equal counts form runs. Uniform bursts
/// answer in closed form. A Zipf burst finds its prefix end by binary
/// search on its theta's weight table, and its page-0 drift by summing
/// its runs, each found by a galloping search; it sums a range page by
/// page.
///
/// A Zipf spread reads its thread's table for that theta, so it must not
/// outlive a later BurstSpread or expand_burst_counts on the same thread,
/// which may grow or clear the table (checked builds assert this).
class BurstSpread {
 public:
  explicit BurstSpread(const AccessBurst& b);

  u64 nonzero_pages() const { return nonzero_; }
  /// All the burst's accesses: sum(0, page_count), without the pass.
  u64 total() const { return total_; }
  u64 at(u64 i) const {
    if (i >= nonzero_) return 0;
    if (weight_ == nullptr) return base_ + (i < rem_ ? 1 : 0);
    TOSS_ASSERT(table_live(), "BurstSpread outlived its Zipf table");
    return i == 0 ? head_ : zipf_share(i);
  }
  u64 sum(u64 lo, u64 hi) const;
  /// End of the maximal run of equal counts that holds page
  /// i < nonzero_pages(): every page of [i, run_end(i)) counts at(i).
  u64 run_end(u64 i) const;

 private:
  /// Page i >= 1 of a Zipf burst: its share of the accesses, rounded down.
  u64 zipf_share(u64 i) const {
    return static_cast<u64>(accesses_ * weight_[i] / z_);
  }
  /// The first page after i (1 <= i < nonzero_) whose share differs from
  /// page i's, or nonzero_.
  u64 zipf_run_end(u64 i) const;
  /// No table of this thread has grown or been cleared since construction.
  bool table_live() const;

  u64 nonzero_ = 0;
  u64 total_ = 0;
  // Uniform: base_ accesses per page, one more on pages below rem_.
  u64 base_ = 0;
  u64 rem_ = 0;
  // Zipf: page 0 holds head_ (its share plus the rounding drift).
  const double* weight_ = nullptr;  ///< nullptr for a uniform burst
  double accesses_ = 0;
  double z_ = 0;
  u64 head_ = 0;
  u64 table_generation_ = 0;
};

/// Per-tier time and device-bandwidth demand of a burst, indexed by ladder
/// rank (0 = fastest); the concurrency model (platform/concurrency.hpp)
/// aggregates demands across invocations into one contention pool per
/// rank. Fixed-size per-rank arrays: ranks beyond the ladder stay zero.
struct BurstCost {
  std::array<Nanos, kMaxTiers> tier_ns{};
  /// Device bytes moved (demand, not footprint), split by the burst's
  /// read/write mix.
  std::array<double, kMaxTiers> tier_read_bytes{};
  std::array<double, kMaxTiers> tier_write_bytes{};

  Nanos total_ns() const {
    Nanos total = 0;
    for (Nanos t : tier_ns) total += t;
    return total;
  }
};

/// Accesses of one burst summed per ladder rank.
using RankAccesses = std::array<u64, kMaxTiers>;

class AccessCostModel {
 public:
  explicit AccessCostModel(const SystemConfig& cfg) : cfg_(&cfg) {
    TOSS_REQUIRE(cfg.tier_count() >= 1 && cfg.tier_count() <= kMaxTiers);
  }

  /// Cost of one cache-line access in tier `t` under `pattern`, blending the
  /// read/write mix.
  Nanos access_cost(Tier t, Pattern pattern, double write_fraction) const;

  /// Time for a burst when every page of it lives in tier `t`.
  Nanos burst_time_uniform(const AccessBurst& b, Tier t) const;

  /// Time for a burst under a placement. `counts` must be the
  /// expansion of `b` (expand_burst_counts): the materialised reference
  /// path the oracles and BurstTrace::time_under use.
  Nanos burst_time(const AccessBurst& b, const std::vector<u64>& counts,
                   const PagePlacement& placement) const;

  /// Full per-tier time + device-demand breakdown of a burst.
  BurstCost burst_cost(const AccessBurst& b, const std::vector<u64>& counts,
                       const PagePlacement& placement) const;

  /// The same breakdown from the burst's accesses already summed per rank
  /// (MicroVm::execute and BinProfiler sum them over page ranges);
  /// burst_cost is this over its own page pass.
  BurstCost cost_of(const AccessBurst& b, const RankAccesses& accesses) const;

  /// Total memory time of a whole trace in a single tier.
  Nanos trace_time_uniform(const std::vector<AccessBurst>& trace,
                           Tier t) const;

  const SystemConfig& config() const { return *cfg_; }

 private:
  const SystemConfig* cfg_;
};

}  // namespace toss
