#include "mem/page_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/bitmap.hpp"
#include "util/contracts.hpp"

namespace toss {

HostPageCache::HostPageCache(u64 readahead_pages)
    : readahead_(readahead_pages == 0 ? 1 : readahead_pages) {}

bool HostPageCache::contains(u64 file_id, u64 page_index) const {
  if (file_id >= files_.size()) return false;
  const Bitmap& bits = files_[file_id];
  const u64 word = page_index / kWordPages;
  return word < bits.size() &&
         ((bits[word] >> (page_index % kWordPages)) & 1) != 0;
}

u64 HostPageCache::count_cached(u64 file_id, u64 page_begin,
                                u64 page_count) const {
  if (file_id >= files_.size() || page_count == 0) return 0;
  const Bitmap& bits = files_[file_id];
  const u64 end = std::min(page_begin + page_count,
                           static_cast<u64>(bits.size()) * kWordPages);
  u64 n = 0;
  for_each_word(page_begin, end, [&](u64 word, u64 mask) {
    n += static_cast<u64>(std::popcount(bits[word] & mask));
  });
  return n;
}

HostPageCache::Bitmap& HostPageCache::bitmap_for(u64 file_id, u64 page_end) {
  TOSS_REQUIRE(file_id < (u64{1} << 24),
               "file ids are small per-store counters");
  if (file_id >= files_.size()) files_.resize(file_id + 1);
  Bitmap& bits = files_[file_id];
  if (bits.empty()) filled_.push_back(file_id);
  const u64 words = bitmap_words(page_end);
  if (bits.size() < words) bits.resize(words, 0);
  return bits;
}

u64 HostPageCache::set_pages(u64 file_id, u64 begin, u64 end) {
  if (begin >= end) return 0;
  Bitmap& bits = bitmap_for(file_id, end);
  u64 added = 0;
  for_each_word(begin, end, [&](u64 word, u64 mask) {
    added += static_cast<u64>(std::popcount(mask & ~bits[word]));
    bits[word] |= mask;
  });
  cached_ += added;
  return added;
}

u64 HostPageCache::fill(u64 file_id, u64 page_index) {
  return set_pages(file_id, page_index, page_index + readahead_);
}

void HostPageCache::fill_one(u64 file_id, u64 page_index) {
  set_pages(file_id, page_index, page_index + 1);
}

void HostPageCache::fill_range(u64 file_id, u64 page_begin, u64 page_count) {
  set_pages(file_id, page_begin, page_begin + page_count);
}

u64 HostPageCache::window(u64 file_id, u64 file_page) const {
  if (file_id >= files_.size()) return 0;
  const Bitmap& bits = files_[file_id];
  const auto word = [&](u64 w) { return w < bits.size() ? bits[w] : 0; };
  const u64 w = file_page / kWordPages;
  const u64 shift = file_page % kWordPages;
  u64 v = word(w) >> shift;
  if (shift != 0) v |= word(w + 1) << (kWordPages - shift);
  return v;
}

u64 HostPageCache::fault_word(u64 file_id, u64 file_page, u64 pages,
                              bool readahead) {
  u64 misses = pages & ~window(file_id, file_page);
  if (misses == 0) return 0;
  if (!readahead) {
    // fill_one per miss: only the misses themselves become cached.
    const u64 end = file_page + static_cast<u64>(std::bit_width(misses));
    Bitmap& bits = bitmap_for(file_id, end);
    const u64 w = file_page / kWordPages;
    const u64 shift = file_page % kWordPages;
    bits[w] |= misses << shift;
    if (shift != 0 && (misses >> (kWordPages - shift)) != 0)
      bits[w + 1] |= misses >> (kWordPages - shift);
    cached_ += static_cast<u64>(std::popcount(misses));
    return misses;
  }
  // In page order, each miss reads its readahead window, which turns the
  // later pages it covers into hits.
  u64 majors = 0;
  while (misses != 0) {
    const u64 i = static_cast<u64>(std::countr_zero(misses));
    majors |= u64{1} << i;
    fill(file_id, file_page + i);
    const u64 end = i + readahead_;
    misses &= end >= kWordPages ? 0 : ~((u64{1} << end) - 1);
  }
  return majors;
}

void HostPageCache::drop() {
  for (u64 id : filled_) files_[id].clear();
  filled_.clear();
  cached_ = 0;
}

}  // namespace toss
