// Working-set characterization models: the userfaultfd() tracker REAP uses
// and the mincore() tracker FaaSnap uses.
//
// Both produce a *dual-accessed* view (touched / not touched), which is
// exactly the nuance gap the paper's Observation #4 criticizes. The mincore
// flavor additionally inflates the set with host-page-cache readahead, per
// Section III-C.
#pragma once

#include <utility>
#include <vector>

#include "trace/burst.hpp"
#include "util/page_runs.hpp"

namespace toss {

/// A working set is just the set of touched guest pages, held as the runs
/// of touched and untouched pages: a few ranges per guest.
class WorkingSet {
 public:
  WorkingSet() = default;
  explicit WorkingSet(u64 num_pages) : touched_(num_pages, false) {}

  u64 num_pages() const { return touched_.num_pages(); }
  bool contains(u64 page) const { return touched_.at(page); }
  /// Adds pages [first_page, first_page + page_count).
  void insert(u64 first_page, u64 page_count) {
    touched_.assign(first_page, page_count, true);
  }

  u64 size_pages() const;
  u64 size_bytes() const { return bytes_for_pages(size_pages()); }
  double fraction() const;

  /// Pages in `other` but not in this set (the faults REAP takes when the
  /// execution input diverges from the snapshot input).
  u64 missing_from(const WorkingSet& other) const;

  /// Contiguous touched ranges, for per-region prefetch planning.
  std::vector<std::pair<u64, u64>> touched_ranges() const;  // (begin, count)

  bool operator==(const WorkingSet&) const = default;

 private:
  PageRuns<bool> touched_;
};

/// userfaultfd() model: exact first-touch working set of a trace.
WorkingSet uffd_working_set(const BurstTrace& trace, u64 num_pages);

/// mincore() model: pages resident in the host page cache after the
/// invocation — i.e. the true working set inflated by readahead. The cache
/// starts empty (freshly dropped), and the trace's pages fault in order
/// through HostPageCache::fault_word. O(bursts + bitmap words), not
/// O(guest pages).
WorkingSet mincore_working_set(const BurstTrace& trace, u64 num_pages,
                               u64 readahead_pages = 32);

}  // namespace toss
