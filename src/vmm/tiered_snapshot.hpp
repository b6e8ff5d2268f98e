// Tiered snapshot: one memory file per ladder rank plus the memory layout
// file (Section V-D). Built by serially copying each region of the
// single-tier snapshot into the file of its assigned tier; each file holds
// the page-version runs of its regions, in file order.
//
// At restore time the rank-0 (fastest-tier) file behaves like a normal disk
// file (pages are demand-loaded into DRAM through the host page cache),
// while every deeper rank's file is DAX-mapped straight out of its device —
// no copy, which is why TOSS setup time is constant in snapshot size.
#pragma once

#include "mem/placement.hpp"
#include "vmm/layout.hpp"
#include "vmm/snapshot.hpp"

namespace toss {

class TieredSnapshot {
 public:
  TieredSnapshot() = default;

  /// Partition `snap` by `placement`: each of its maximal same-tier runs
  /// becomes one layout entry (the paper's "Bins Merging").
  /// `file_ids` identifies one file per ladder rank (index 0 = fastest) for
  /// page-cache accounting; its length fixes the artifact's ladder depth.
  static TieredSnapshot build(const SingleTierSnapshot& snap,
                              const PagePlacement& placement,
                              std::vector<u64> file_ids);

  const MemoryLayoutFile& layout() const { return layout_; }
  const VmState& vm_state() const { return vm_state_; }

  /// Ladder depth of the artifact (number of tier files).
  size_t tier_count() const { return file_ids_.size(); }

  u64 file_id(size_t rank) const { return file_ids_[rank]; }
  const std::vector<u64>& file_ids() const { return file_ids_; }

  u64 guest_pages() const { return layout_.guest_pages(); }
  u64 tier_pages(size_t rank) const { return tier_files_[rank].num_pages(); }
  u32 tier_page_version(size_t rank, u64 file_page) const {
    return tier_files_[rank].at(file_page);
  }
  /// One rank's whole tier file (its version runs, in file order).
  const PageVersions& tier_file(size_t rank) const {
    return tier_files_[rank];
  }

  /// Convenience rollups: the fastest rank, and everything below it.
  u64 fast_file_id() const { return file_ids_.front(); }
  u64 fast_pages() const { return tier_pages(0); }
  u64 slow_pages() const {
    u64 n = 0;
    for (size_t r = 1; r < tier_files_.size(); ++r) n += tier_pages(r);
    return n;
  }

  /// Reassemble the guest memory image from the tier files + layout; must be
  /// identical to the original snapshot's memory (tested invariant).
  GuestMemory materialize() const;

  /// Content verification: every layout entry's stored checksum must match
  /// the bytes actually in its tier file, and the tier files must be exactly
  /// as long as the layout says. Returns std::nullopt when intact, else a
  /// description of the first violation ("entry 2: checksum mismatch ...").
  /// The recovery ladder runs this before every tiered restore; a failure
  /// quarantines the artifact instead of mapping it. The structural checks
  /// run on every call; the checksum pass is skipped while sealed().
  std::optional<std::string> verify() const;

  /// A clean checksum verdict, kept until the contents change: build()
  /// seals the artifact (it computes every checksum from the contents it
  /// holds), and the two damage hooks below, its only mutators, unseal it.
  bool sealed() const { return sealed_; }

  /// Fault/test hooks modelling at-rest damage to the rank-0 file. Checksums
  /// are left stale on purpose, which is exactly what verify() exists to
  /// catch. They are the only mutators of the tier files.
  void corrupt_fast_page(u64 file_page);  ///< flip one page's content
  void truncate_fast_file();              ///< drop the fast file's last page

 private:
  MemoryLayoutFile layout_;
  VmState vm_state_;
  std::vector<u64> file_ids_;             ///< one per rank, 0 = fastest
  std::vector<PageVersions> tier_files_;  ///< page contents per rank
  bool sealed_ = false;
};

}  // namespace toss
