#include "vmm/snapshot.hpp"

namespace toss {

SingleTierSnapshot::SingleTierSnapshot(u64 file_id, const GuestMemory& memory,
                                       VmState state)
    : file_id_(file_id),
      page_versions_(memory.versions()),
      vm_state_(state),
      content_hash_(hash_memory(memory)) {}

GuestMemory SingleTierSnapshot::materialize() const {
  GuestMemory mem(memory_bytes());
  mem.copy_versions(0, page_versions_, 0, num_pages());
  return mem;
}

}  // namespace toss
