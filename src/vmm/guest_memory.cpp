#include "vmm/guest_memory.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace toss {

GuestMemory::GuestMemory(u64 bytes) : versions_(pages_for_bytes(bytes), 0) {}

void GuestMemory::copy_versions(u64 page, const std::vector<u32>& file,
                                u64 file_page, u64 count) {
  TOSS_REQUIRE(page + count <= num_pages() && file_page + count <= file.size());
  const auto first = file.begin() + static_cast<std::ptrdiff_t>(file_page);
  std::copy(first, first + static_cast<std::ptrdiff_t>(count),
            versions_.begin() + static_cast<std::ptrdiff_t>(page));
}

u64 region_checksum(const std::vector<u32>& versions, u64 first_page,
                    u64 page_count) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u64 p = first_page; p < first_page + page_count; ++p) {
    const u32 v = versions[p];
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

u64 hash_memory(const GuestMemory& memory) {
  return region_checksum(memory.versions(), 0, memory.num_pages());
}

u64 hash_memory_against(const GuestMemory& memory,
                        const std::vector<u32>& authority,
                        u64 authority_hash) {
  return memory.versions() == authority ? authority_hash
                                        : hash_memory(memory);
}

}  // namespace toss
