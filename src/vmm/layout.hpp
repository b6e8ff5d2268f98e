// Memory layout file of a tiered snapshot (Section V-D).
//
// Each entry records, for one memory region: which tier it lives in, its
// offset within that tier's snapshot file, its offset within guest memory,
// and its size. At restore time the VMM creates one memory mapping per
// entry, so the entry count directly drives setup time (Section V-F).
//
// The layout is tier-indexed: entries carry a ladder rank and the file
// records how deep the ladder was at tiering time. validate_layout() is the
// one structural predicate over it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mem/tier.hpp"

namespace toss {

struct LayoutEntry {
  Tier tier = tier_index(0);
  u64 file_page = 0;   ///< offset within the tier's snapshot file, in pages
  u64 guest_page = 0;  ///< offset within guest memory, in pages
  u64 page_count = 0;
  /// Content checksum of the region's pages in the tier file
  /// (region_checksum), written at tiering time (Step IV). Restores
  /// recompute it before mapping; a mismatch means bitrot or a torn write
  /// and the artifact is quarantined instead of mapped
  /// (TieredSnapshot::verify).
  u64 checksum = 0;

  u64 guest_page_end() const { return guest_page + page_count; }
  u64 bytes() const { return bytes_for_pages(page_count); }
};

class MemoryLayoutFile {
 public:
  MemoryLayoutFile() = default;
  MemoryLayoutFile(u64 guest_pages, std::vector<LayoutEntry> entries,
                   size_t tier_count = 2);

  u64 guest_pages() const { return guest_pages_; }
  const std::vector<LayoutEntry>& entries() const { return entries_; }
  size_t entry_count() const { return entries_.size(); }
  /// Ladder depth this layout was tiered against; entry tier tags are all
  /// below it.
  size_t tier_count() const { return tier_count_; }

  /// Number of entries (mappings) per tier.
  u64 entries_in(Tier t) const;

  /// Pages per tier.
  u64 pages_in(Tier t) const;

  /// Fraction of guest bytes below the fastest tier.
  double slow_fraction() const;

 private:
  u64 guest_pages_ = 0;
  size_t tier_count_ = 2;
  std::vector<LayoutEntry> entries_;
};

/// Structural validation with a diagnostic: entries must be sorted by guest
/// offset, non-empty, non-overlapping and gap-free (they tile guest memory
/// exactly, so sizes sum to the snapshot size), carry a tier tag inside the
/// recorded ladder, and each tier's file offsets must be contiguous from
/// zero in entry order. Returns std::nullopt when the layout is
/// well-formed, else a description of the first violation ("entry 3:
/// overlaps entry 2 ..."). Checked builds call this at the Step IV seam via
/// TOSS_VALIDATE, and TieredSnapshot::verify() runs it before every tiered
/// restore.
std::optional<std::string> validate_layout(const MemoryLayoutFile& layout);

}  // namespace toss
