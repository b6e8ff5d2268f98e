// Vanilla single-tier snapshot restore, in two flavors:
//
//  - lazy (Firecracker default): memory-map the guest memory file in one
//    mapping and demand-load every page from disk;
//  - eager: additionally read the whole memory file into DRAM up front.
//
// The eager flavor is the paper's "DRAM snapshot" baseline that the
// setup/invocation/scalability figures normalize to — it is why REAP with
// a fully-matched working set behaves "similar to DRAM" in Fig 9.
#pragma once

#include "baseline/policy.hpp"
#include "vmm/snapshot_store.hpp"

namespace toss {

class VanillaPolicy final : public RestorePolicy {
 public:
  VanillaPolicy(const SnapshotStore& store, u64 snapshot_file_id,
                bool eager = false);

  RestorePlan plan_restore() const override;

 private:
  const SnapshotStore* store_;
  u64 snapshot_file_id_;
  bool eager_;
};

}  // namespace toss
