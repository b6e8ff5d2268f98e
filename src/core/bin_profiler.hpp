// Bin profiling (Section V-C): starting from all bins in the fastest tier
// (zero-access regions already at the deepest rung), progressively push
// bins down the ladder — coldest access density first — and measure the
// slowdown of each configuration on the *representative invocation* (the
// largest input seen during memory profiling). Each step yields the bin's
// marginal slowdown and its normalized memory cost.
//
// With a two-tier ladder this is the paper's single offload sweep. With a
// deeper ladder the sweep runs one pass per rung descent: pass p moves
// bins from rank p-1 to rank p, coldest first, so a prefix of the
// concatenated step sequence is a full per-bin rung assignment (colder
// bins sit deeper).
//
// The whole sweep costs one pass over the representative trace plus
// O(steps x bursts): the pass records every burst's accesses per rank and
// each bin's share of them, and a descent moves its bin's share one rank
// down and re-costs only the bursts it overlaps. Every step's time is the
// same double a full replay (warm_exec_ns) of its prefix placement gives.
#pragma once

#include <vector>

#include "core/binpack.hpp"
#include "core/cost.hpp"
#include "mem/access_cost.hpp"
#include "workloads/function_model.hpp"

namespace toss {

struct BinStep {
  size_t bin_index = 0;          ///< index into the packed bins vector
  size_t from_rank = 0;          ///< ladder rank the bin leaves...
  size_t to_rank = 1;            ///< ...and the rank this step moves it to
  double byte_fraction = 0;      ///< bin bytes / guest bytes
  double marginal_slowdown = 0;  ///< slowdown added by this descent
  double cumulative_slowdown = 0;
  double slow_fraction = 0;      ///< guest fraction below rank 0 after this step
  double cumulative_cost = 0;    ///< normalized Eq 1 at this configuration
  double bin_cost = 0;           ///< per-bin offload test (V-C rule)
};

/// BinSpan::bin of a zero-access region.
inline constexpr size_t kZeroSpan = static_cast<size_t>(-1);

/// One bin region or zero-access region as a half-open page span.
struct BinSpan {
  u64 begin = 0;
  u64 end = 0;
  size_t bin = kZeroSpan;  ///< owning bin index, or kZeroSpan
};

struct BinProfile {
  Nanos base_exec_ns = 0;  ///< representative warm time, all bins in DRAM
  Nanos full_slow_exec_ns = 0;  ///< everything (incl. bins) at the deepest rung
  /// Steps in sweep order: pass 1 (rank 0 -> 1) coldest first, then pass 2
  /// (rank 1 -> 2), ... A prefix of this sequence is one configuration.
  std::vector<BinStep> steps;
  /// Zero-access regions at the deepest rung, all bins in the fastest tier.
  PagePlacement base_placement;
  /// Every nonempty bin region and zero-access region, sorted by page and
  /// pairwise disjoint: select_placement lays a placement out from them
  /// in one pass.
  std::vector<BinSpan> spans;

  double full_slow_slowdown() const {
    return base_exec_ns > 0 ? full_slow_exec_ns / base_exec_ns : 1.0;
  }
};

class BinProfiler {
 public:
  explicit BinProfiler(const SystemConfig& cfg) : cfg_(&cfg), model_(cfg) {}

  /// Profile the bins against `representative` (warm execution: the VM is
  /// already restored; only access-time differences matter, which is what
  /// the configuration comparison isolates).
  ///
  /// Each step of the sweep measures one descent *prefix*. Requires the
  /// bins' regions to be pairwise disjoint and disjoint from
  /// `zero_regions`, so that a descent moves its bin wholly.
  BinProfile profile(const std::vector<Bin>& bins,
                     const RegionList& zero_regions, u64 guest_pages,
                     const Invocation& representative) const;

  /// Warm execution time of an invocation under a placement.
  Nanos warm_exec_ns(const Invocation& inv,
                     const PagePlacement& placement) const;

 private:
  const SystemConfig* cfg_;
  AccessCostModel model_;
};

}  // namespace toss
