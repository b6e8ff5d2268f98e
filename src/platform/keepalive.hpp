// Keep-alive (warm VM) caching, the integration Section VI-A sketches:
// "TOSS can keep the VM alive on both tiers until evicted".
//
// The cache implements the Greedy-Dual-Size-Frequency keep-alive policy of
// FaasCache (Fuerst & Sharma, ASPLOS'21): each warm VM carries a priority
//   priority = clock + frequency * cold_cost / size
// where `size` is what the VM occupies of the *constrained* resource. For
// a DRAM-only platform that is the whole VM; for TOSS it is only the fast
// (DRAM) share of the tiered snapshot — which is exactly why a fixed DRAM
// budget keeps many more TOSS VMs warm.
//
// Ownership (DESIGN.md §15): the cache has one owner, the host's fast-tier
// arbiter, which touches it only from its tick at the serial epoch
// barrier. No lane task reaches it, so it is a plain single-threaded class.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "util/units.hpp"

namespace toss {

struct KeepAliveConfig {
  u64 dram_capacity_bytes = 4 * kGiB;
  /// Slow-tier pool; effectively abundant in the paper's setup (768 GB).
  u64 slow_capacity_bytes = 64 * kGiB;
  /// Half-life of the prewarm urgency boost: a VM whose predicted reuse is
  /// this far away gets a 1.5x priority factor (2x at gap 0, asymptote 1x).
  Nanos urgency_halflife_ns = sec(1);
};

struct KeepAliveStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 rejected = 0;  ///< VM larger than the whole pool

  double hit_rate() const {
    const u64 total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }

  bool operator==(const KeepAliveStats&) const = default;
};

class KeepAliveCache {
 public:
  explicit KeepAliveCache(KeepAliveConfig cfg = {});

  /// Look up a warm VM. A hit refreshes its priority (frequency + clock).
  bool lookup(const std::string& function);

  /// Insert (or replace) a warm VM after a cold start. `dram_bytes` /
  /// `slow_bytes`: what the VM pins in each pool. `cold_cost_ns`: what a
  /// future cold start would cost (the benefit of keeping it).
  /// `predicted_reuse_gap_ns`: the inter-arrival predictor's estimate of
  /// how soon the function fires again — an imminent reuse boosts the
  /// priority (prewarm handshake); negative = no prediction, no boost.
  /// Evicts lowest-priority VMs until it fits; returns false if it cannot
  /// fit at all.
  bool insert(const std::string& function, u64 dram_bytes, u64 slow_bytes,
              Nanos cold_cost_ns, Nanos predicted_reuse_gap_ns = -1);

  /// Explicitly evict one function (e.g. re-profiling invalidated it).
  void evict(const std::string& function);

  /// Evict the single lowest-priority warm VM (the arbiter's first ladder
  /// rung — shedding warmth is cheaper than re-tiering). Advances the aging
  /// clock and counts the eviction like capacity pressure would. Returns
  /// the evicted function's name, or nullopt when the cache is empty.
  std::optional<std::string> evict_lowest();

  bool contains(const std::string& function) const;
  size_t warm_count() const { return entries_.size(); }
  u64 dram_in_use() const { return dram_used_; }
  u64 slow_in_use() const { return slow_used_; }
  KeepAliveStats stats() const { return stats_; }

 private:
  struct Entry {
    u64 dram_bytes = 0;
    u64 slow_bytes = 0;
    Nanos cold_cost_ns = 0;
    Nanos predicted_reuse_gap_ns = -1;  ///< negative = no prediction
    u64 frequency = 0;
    double priority = 0;
  };

  double priority_of(const Entry& e) const;
  /// Evict lowest-priority entries until both pools can fit the sizes.
  bool make_room(u64 dram_bytes, u64 slow_bytes);

  KeepAliveConfig cfg_;
  std::map<std::string, Entry> entries_;
  u64 dram_used_ = 0;  ///< Σ entries_ dram_bytes
  u64 slow_used_ = 0;  ///< Σ entries_ slow_bytes
  double clock_ = 0;  ///< Greedy-Dual aging clock (last evicted priority)
  KeepAliveStats stats_;
};

}  // namespace toss
