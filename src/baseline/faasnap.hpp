// FaaSnap (Ao et al. EuroSys'22) style restore: working set recorded with
// mincore() after the first invocation (which inflates the set with host
// page-cache readahead), loaded at restore as one mapping per contiguous WS
// range so loading can overlap with execution. We model the overlap as a
// configurable discount on the eager load time.
#pragma once

#include "baseline/policy.hpp"
#include "trace/working_set.hpp"
#include "vmm/snapshot_store.hpp"

namespace toss {

class FaasnapPolicy final : public RestorePolicy {
 public:
  /// `ws` is the working set recorded with mincore() on the guest memory
  /// file after the first invocation (mincore_working_set).
  FaasnapPolicy(const SnapshotStore& store, u64 snapshot_file_id,
                WorkingSet ws);

  RestorePlan plan_restore() const override;

 private:
  const SnapshotStore* store_;
  u64 snapshot_file_id_;
  WorkingSet ws_;
};

}  // namespace toss
