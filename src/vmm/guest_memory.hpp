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

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace toss {

/// Pages [page_begin, page_begin + page_count), all at `version`.
struct VersionRun {
  u64 page_begin = 0;
  u64 page_count = 0;
  u32 version = 0;

  u64 page_end() const { return page_begin + page_count; }
  bool operator==(const VersionRun&) const = default;
};

/// Per-page content versions over [0, num_pages), held as runs. Every
/// mutator keeps the list canonical (runs are nonempty, maximal and tile
/// the range), so the defaulted == is content equality.
class PageVersions {
 public:
  PageVersions() = default;
  /// `num_pages` pages at version 0.
  explicit PageVersions(u64 num_pages);

  u64 num_pages() const { return runs_.empty() ? 0 : runs_.back().page_end(); }

  /// The maximal runs of equal version, in page order.
  const std::vector<VersionRun>& runs() const { return runs_; }

  /// One page's version (a binary search over the runs).
  u32 at(u64 page) const;

  /// Calls f(version, pages) for each run's part inside
  /// [first_page, first_page + page_count), in page order.
  template <class F>
  void for_each_in(u64 first_page, u64 page_count, F&& f) const;

  /// Extends the range by `page_count` pages at `version`.
  void append(u64 page_count, u32 version);
  /// Extends the range by pages [first_page, first_page + page_count) of
  /// `source`.
  void append(const PageVersions& source, u64 first_page, u64 page_count);
  /// Adds one (wrapping) to every page of [first_page, first_page +
  /// page_count).
  void bump(u64 first_page, u64 page_count);
  /// Drops every page from `num_pages` on.
  void truncate(u64 num_pages);

  bool operator==(const PageVersions&) const = default;

 private:
  /// Index of the run holding `page` (< num_pages()).
  size_t run_of(u64 page) const;
  /// Runs are nonempty, tile [0, num_pages) and differ from their
  /// neighbours.
  bool canonical() const;

  std::vector<VersionRun> runs_;
};

template <class F>
void PageVersions::for_each_in(u64 first_page, u64 page_count, F&& f) const {
  TOSS_REQUIRE(first_page + page_count <= num_pages());
  if (page_count == 0) return;
  const u64 end = first_page + page_count;
  for (size_t i = run_of(first_page);
       i < runs_.size() && runs_[i].page_begin < end; ++i) {
    const VersionRun& r = runs_[i];
    f(r.version, std::min(end, r.page_end()) -
                     std::max(first_page, r.page_begin));
  }
}

class GuestMemory {
 public:
  /// A fresh guest: every page at version 0.
  explicit GuestMemory(u64 bytes);
  explicit GuestMemory(PageVersions contents);

  u64 num_pages() const { return contents_.num_pages(); }
  u64 num_bytes() const { return bytes_for_pages(num_pages()); }

  u32 version(u64 page) const { return contents_.at(page); }
  const PageVersions& page_versions() const { return contents_; }

  /// A workload write over pages [first_page, first_page + page_count).
  void bump(u64 first_page, u64 page_count) {
    contents_.bump(first_page, page_count);
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
