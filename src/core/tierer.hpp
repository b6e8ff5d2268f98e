// Snapshot tiering (Step IV / Section V-D): partition the single-tier
// snapshot into one file per ladder rank + the memory layout file, and the
// restore policy that memory-maps them back.
#pragma once

#include "baseline/policy.hpp"
#include "core/optimizer.hpp"
#include "vmm/snapshot_store.hpp"

namespace toss {

/// Build a tiered snapshot from `snap` using `placement` and register it in
/// the store, with one tier file per rank of the store's configured ladder.
/// Returns the rank-0 (fast) file id — the tiered snapshot's handle.
u64 tier_snapshot(SnapshotStore& store, const SingleTierSnapshot& snap,
                  const PagePlacement& placement);

/// TOSS restore: one mapping per layout entry. The rank-0 file stays pinned
/// in DRAM (it is precisely the fast-tier share the memory cost model
/// charges for) and every deeper rank's file is a DAX mapping of its
/// device, so no data moves at restore — setup is constant in snapshot
/// size and execution never waits on the snapshot disk.
class TossPolicy final : public RestorePolicy {
 public:
  TossPolicy(const SnapshotStore& store, u64 tiered_id);

  RestorePlan plan_restore() const override;

 private:
  const SnapshotStore* store_;
  u64 tiered_id_;
};

}  // namespace toss
