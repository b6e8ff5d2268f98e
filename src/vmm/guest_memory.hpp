// Guest physical memory model.
//
// The simulator does not store real guest bytes; it stores a 32-bit content
// version per page. Workload writes bump versions, snapshots copy them, and
// restores must reproduce them exactly — giving the test suite a cheap but
// strict data-integrity oracle for the snapshot/tiering path.
#pragma once

#include <vector>

#include "util/units.hpp"

namespace toss {

class GuestMemory {
 public:
  explicit GuestMemory(u64 bytes);

  u64 num_pages() const { return static_cast<u64>(versions_.size()); }
  u64 num_bytes() const { return bytes_for_pages(num_pages()); }

  u32 version(u64 page) const { return versions_[page]; }
  void set_version(u64 page, u32 v) { versions_[page] = v; }
  void bump_version(u64 page) { ++versions_[page]; }
  /// Bulk copy: pages [page, page+count) take versions
  /// [file_page, file_page+count) of a snapshot file's version array.
  void copy_versions(u64 page, const std::vector<u32>& file, u64 file_page,
                     u64 count);

  const std::vector<u32>& versions() const { return versions_; }

  bool operator==(const GuestMemory&) const = default;

 private:
  std::vector<u32> versions_;
};

/// FNV-1a over versions [first_page, first_page + page_count) of a page
/// version array. A tiered snapshot stores it per layout entry
/// (LayoutEntry::checksum, `versions` a tier file) and recomputes it
/// before a restore maps the region.
u64 region_checksum(const std::vector<u32>& versions, u64 first_page,
                    u64 page_count);

/// region_checksum over every page of the guest — the page-version oracle
/// the chaos suite compares against the authoritative snapshot contents to
/// prove that no recovered invocation ever observed wrong memory.
u64 hash_memory(const GuestMemory& memory);

/// hash_memory(memory) for a guest checked against an authority whose
/// contents (`authority`) and hash (`authority_hash`) are known: equal
/// contents have equal hashes, so the versions are compared first and the
/// guest is hashed only on a mismatch.
u64 hash_memory_against(const GuestMemory& memory,
                        const std::vector<u32>& authority,
                        u64 authority_hash);

}  // namespace toss
