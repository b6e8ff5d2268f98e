// Guest physical memory model.
//
// The simulator does not store real guest bytes; it stores a 32-bit content
// version per page, held as the maximal runs of equal version that tile the
// guest. Workload writes bump versions, snapshots copy them, and restores
// must reproduce them exactly — giving the test suite a cheap but strict
// data-integrity oracle for the snapshot/tiering path. Guests hold a few
// runs, so copying, comparing and hashing contents cost O(runs), whatever
// the guest size.
#pragma once

#include "util/page_runs.hpp"

namespace toss {

/// Per-page content versions over [0, num_pages), as maximal runs.
using PageVersions = PageRuns<u32>;

class GuestMemory {
 public:
  /// A fresh guest: every page at version 0.
  explicit GuestMemory(u64 bytes);
  explicit GuestMemory(PageVersions contents);

  u64 num_pages() const { return contents_.num_pages(); }
  u64 num_bytes() const { return bytes_for_pages(num_pages()); }

  u32 version(u64 page) const { return contents_.at(page); }
  const PageVersions& page_versions() const { return contents_; }

  /// A workload write over pages [first_page, first_page + page_count):
  /// each page's version goes up by one, wrapping.
  void bump(u64 first_page, u64 page_count) {
    contents_.update(first_page, page_count, [](u32 v) { return v + 1; });
  }

  bool operator==(const GuestMemory&) const = default;

 private:
  PageVersions contents_;
};

/// FNV-1a over the bytes of versions [first_page, first_page + page_count),
/// each version's four bytes low byte first. A tiered snapshot stores it
/// per layout entry (LayoutEntry::checksum, `versions` a tier file) and
/// recomputes it before a restore maps the region. A run of k equal
/// versions folds in O(256 + log k) steps, to the value of the per-page
/// loop.
u64 region_checksum(const PageVersions& versions, u64 first_page,
                    u64 page_count);

/// region_checksum over every page of the guest — the page-version oracle
/// the chaos suite compares against the authoritative snapshot contents to
/// prove that no recovered invocation ever observed wrong memory.
u64 hash_memory(const GuestMemory& memory);

/// hash_memory(memory) for a guest checked against an authority whose
/// contents (`authority`) and hash (`authority_hash`) are known: equal
/// contents have equal hashes, so the run lists are compared first and
/// the guest is hashed only on a mismatch.
u64 hash_memory_against(const GuestMemory& memory,
                        const PageVersions& authority, u64 authority_hash);

}  // namespace toss
