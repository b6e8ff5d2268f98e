// Single-tier snapshot: one guest memory file plus the VMM state, as
// produced by Firecracker's snapshotting feature. This is the artifact
// TOSS's Step I captures and Step IV later partitions into tiers. The file
// holds the guest's page-version runs.
#pragma once

#include "vmm/guest_memory.hpp"
#include "vmm/vm_state.hpp"

namespace toss {

class SingleTierSnapshot {
 public:
  SingleTierSnapshot() = default;
  SingleTierSnapshot(u64 file_id, const GuestMemory& memory, VmState state);

  u64 file_id() const { return file_id_; }
  u64 num_pages() const { return page_versions_.num_pages(); }
  u64 memory_bytes() const { return bytes_for_pages(num_pages()); }

  u32 page_version(u64 page) const { return page_versions_.at(page); }
  const PageVersions& page_versions() const { return page_versions_; }
  const VmState& vm_state() const { return vm_state_; }

  /// hash_memory(materialize()). The snapshot has no mutators, so the
  /// oracle's authority hash is computed once, at construction.
  u64 content_hash() const { return content_hash_; }

  /// Reconstruct guest memory contents from the snapshot file (a copy of
  /// its runs).
  GuestMemory materialize() const { return GuestMemory(page_versions_); }

 private:
  u64 file_id_ = 0;
  PageVersions page_versions_;
  VmState vm_state_;
  u64 content_hash_ = hash_memory(GuestMemory(0));
};

}  // namespace toss
