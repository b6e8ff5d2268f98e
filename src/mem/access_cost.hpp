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
};

/// Deterministically expand a burst into per-page access counts
/// (length == burst.page_count). The counts sum to ~burst.accesses.
std::vector<u64> expand_burst_counts(const AccessBurst& burst);

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

  /// Time for a burst under a per-page placement. `counts` must be the
  /// expansion of `b` (expand_burst_counts); passing it explicitly lets
  /// callers cache the expansion.
  Nanos burst_time(const AccessBurst& b, const std::vector<u64>& counts,
                   const PagePlacement& placement) const;

  /// Full per-tier time + device-demand breakdown of a burst.
  BurstCost burst_cost(const AccessBurst& b, const std::vector<u64>& counts,
                       const PagePlacement& placement) const;

  /// The same breakdown from the burst's accesses already summed per rank
  /// (for callers that walk the burst's pages anyway, like
  /// MicroVm::execute); burst_cost is this over its own page pass.
  BurstCost cost_of(const AccessBurst& b, const RankAccesses& accesses) const;

  /// Total memory time of a whole trace in a single tier.
  Nanos trace_time_uniform(const std::vector<AccessBurst>& trace,
                           Tier t) const;

  const SystemConfig& config() const { return *cfg_; }

 private:
  const SystemConfig* cfg_;
};

}  // namespace toss
