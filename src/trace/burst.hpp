// BurstTrace: an invocation's memory activity as an ordered list of access
// bursts. A trace keeps no per-page counts: readers go through
// BurstSpread (PageAccessCounts::from_trace sums its runs), or
// expand_burst_counts for the materialised reference.
#pragma once

#include <vector>

#include "mem/access_cost.hpp"

namespace toss {

class BurstTrace {
 public:
  BurstTrace() = default;
  explicit BurstTrace(std::vector<AccessBurst> bursts);

  const std::vector<AccessBurst>& bursts() const { return bursts_; }
  bool empty() const { return bursts_.empty(); }
  size_t size() const { return bursts_.size(); }

  void push_back(AccessBurst b);

  /// Total LLC-missing accesses in the trace.
  u64 total_accesses() const;

  /// Number of distinct guest pages touched (union of burst ranges).
  u64 footprint_pages(u64 num_guest_pages) const;

  /// Highest page index touched, +1 (0 for an empty trace).
  u64 max_page_end() const;

  /// Memory time of the whole trace under a placement, from each burst's
  /// materialised expansion (the warm-time reference the oracles replay).
  Nanos time_under(const AccessCostModel& model,
                   const PagePlacement& placement) const;

  /// Memory time with all pages in one tier.
  Nanos time_uniform(const AccessCostModel& model, Tier t) const;

 private:
  std::vector<AccessBurst> bursts_;
};

}  // namespace toss
