// Host page cache model.
//
// Snapshot files live on the simulated disk; the host page cache decides
// whether a guest page fault is satisfied from cached file pages (minor-ish
// cost) or requires a disk read (major fault). The evaluation methodology
// drops the cache between invocations, which `drop()` implements.
//
// Dense representation, in the way vmcache keeps a page-state array: one
// bitmap per file id (file ids are small per-store counters), grown on
// demand to the highest page filled. Range fills, eager-load hit counts,
// demand faults (fault_word) and the cached-run scan mincore() reads all
// work a 64-page word at a time, and drop() clears only the files filled
// since the previous drop, so its cost follows the invocation's page work,
// not the cache's history.
#pragma once

#include <vector>

#include "mem/tier.hpp"
#include "util/bitmap.hpp"

namespace toss {

class HostPageCache {
 public:
  /// Readahead window in pages: a disk read of page p also caches
  /// [p, p + readahead). Linux default readahead is 128 KiB = 32 pages;
  /// this is what inflates mincore()-based working sets.
  explicit HostPageCache(u64 readahead_pages = 32);

  bool contains(u64 file_id, u64 page_index) const;

  /// Pages of [page_begin, page_begin+page_count) of a file already cached.
  u64 count_cached(u64 file_id, u64 page_begin, u64 page_count) const;

  /// Record that a page was read from disk; readahead neighbors become
  /// cached as well. Returns the number of pages newly cached.
  u64 fill(u64 file_id, u64 page_index);

  /// Cache exactly one page (random access defeats readahead).
  void fill_one(u64 file_id, u64 page_index);

  /// Cache pages [begin, begin+count) of a file (sequential prefetch).
  void fill_range(u64 file_id, u64 page_begin, u64 page_count);

  /// Demand-faults up to 64 file pages in page order: bit i of `pages` is
  /// page `file_page + i`. Returns the pages that missed the cache (the
  /// major faults), and caches them exactly as probing each page with
  /// contains() and filling each miss would: with `readahead`, fill() (a
  /// miss's window also covers the later pages it reaches, and may run
  /// past the 64), otherwise fill_one(). O(1) words, plus one fill per
  /// miss with readahead.
  u64 fault_word(u64 file_id, u64 file_page, u64 pages, bool readahead);

  /// Calls f(begin, count) for each maximal run of a file's cached pages
  /// below `page_end`, in page order, a bitmap word at a time.
  template <typename F>
  void for_each_cached_run(u64 file_id, u64 page_end, F&& f) const {
    if (file_id < files_.size())
      for_each_set_run(files_[file_id], page_end, f);
  }

  /// `echo 3 > /proc/sys/vm/drop_caches` equivalent.
  void drop();

  u64 cached_pages() const { return cached_; }
  u64 readahead_pages() const { return readahead_; }

 private:
  using Bitmap = std::vector<u64>;

  /// The file's bitmap, grown to cover pages below `page_end`; a file's
  /// first fill since the last drop marks it for the next drop.
  Bitmap& bitmap_for(u64 file_id, u64 page_end);
  /// Set the bits of pages [begin, end); returns how many were clear.
  u64 set_pages(u64 file_id, u64 begin, u64 end);
  /// The cached bits of pages [file_page, file_page + 64), bit i for page
  /// file_page + i (pages past the bitmap read as uncached).
  u64 window(u64 file_id, u64 file_page) const;

  u64 readahead_;
  u64 cached_ = 0;
  std::vector<Bitmap> files_;  ///< indexed by file id
  std::vector<u64> filled_;    ///< file ids filled since the last drop
};

}  // namespace toss
