// REAP (Record-and-Prefetch, Ustiugov et al. ASPLOS'21): the snapshot-based
// state of the art the paper compares against.
//
// During the *first* invocation REAP records the working set with
// userfaultfd(). Subsequent restores map the guest memory file and eagerly
// prefetch the recorded WS pages into DRAM, populating their page-table
// entries, so accesses within the recorded WS take no faults. Pages outside
// the recorded WS still demand-load from disk — which is exactly what goes
// wrong when the execution input diverges from the snapshot input (Fig 3).
#pragma once

#include "baseline/policy.hpp"
#include "trace/working_set.hpp"
#include "vmm/snapshot_store.hpp"

namespace toss {

class ReapPolicy final : public RestorePolicy {
 public:
  /// `ws` is the working set recorded with userfaultfd() during the first
  /// (snapshot-input) invocation (uffd_working_set).
  ReapPolicy(const SnapshotStore& store, u64 snapshot_file_id, WorkingSet ws);

  RestorePlan plan_restore() const override;

 private:
  const SnapshotStore* store_;
  u64 snapshot_file_id_;
  WorkingSet ws_;
};

}  // namespace toss
