#include "vmm/snapshot.hpp"

namespace toss {

SingleTierSnapshot::SingleTierSnapshot(u64 file_id, const GuestMemory& memory,
                                       VmState state)
    : file_id_(file_id),
      page_versions_(memory.page_versions()),
      vm_state_(state),
      content_hash_(hash_memory(memory)) {}

}  // namespace toss
