// Unified access pattern file (Section V-B).
//
// TOSS merges every profiled invocation's DAMON record into one unified
// per-page pattern (per-page max, so intensity stays representative and the
// merge is idempotent), held as runs: a merge costs O(runs + regions).
// Profiling terminates once the unified pattern has been stable for N
// consecutive invocations.
#pragma once

#include "damon/record.hpp"
#include "trace/pattern.hpp"

namespace toss {

class UnifiedPattern {
 public:
  /// `change_epsilon`: merges that move the pattern by less than this
  /// normalized L1 distance count as "no change" for convergence purposes
  /// (DAMON sampling noise would otherwise never let the pattern settle).
  explicit UnifiedPattern(u64 num_pages, double change_epsilon = 0.02);

  /// Merge one invocation's record. Returns true if the unified pattern
  /// changed (beyond epsilon); the stable streak resets on change.
  bool add_record(const DamonRecord& record);

  /// Consecutive invocations that did not change the pattern.
  u64 stable_streak() const { return stable_streak_; }

  /// Number of records merged so far.
  u64 records_merged() const { return records_; }

  const PageAccessCounts& counts() const { return counts_; }
  u64 num_pages() const { return counts_.num_pages(); }

 private:
  PageAccessCounts counts_;
  double change_epsilon_;
  u64 stable_streak_ = 0;
  u64 records_ = 0;
};

}  // namespace toss
