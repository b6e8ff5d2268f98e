#include "vmm/layout.hpp"

namespace toss {

MemoryLayoutFile::MemoryLayoutFile(u64 guest_pages,
                                   std::vector<LayoutEntry> entries,
                                   size_t tier_count)
    : guest_pages_(guest_pages),
      tier_count_(tier_count),
      entries_(std::move(entries)) {}

std::optional<std::string> validate_layout(const MemoryLayoutFile& layout) {
  const auto entry_err = [](size_t i, const std::string& what) {
    return "entry " + std::to_string(i) + ": " + what;
  };
  u64 next_guest = 0;
  std::vector<u64> next_file(layout.tier_count(), 0);
  const auto& entries = layout.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LayoutEntry& e = entries[i];
    const auto tier_idx = static_cast<size_t>(e.tier);
    if (tier_idx >= layout.tier_count())
      return entry_err(i, "invalid tier tag " + std::to_string(tier_idx));
    if (e.page_count == 0) return entry_err(i, "empty region");
    if (e.guest_page < next_guest)
      return entry_err(
          i, "guest page " + std::to_string(e.guest_page) +
                 (i == 0 ? " not sorted"
                         : " overlaps entry " + std::to_string(i - 1) +
                               " ending at " + std::to_string(next_guest)));
    if (e.guest_page > next_guest)
      return entry_err(i, "gap: guest pages [" + std::to_string(next_guest) +
                              ", " + std::to_string(e.guest_page) +
                              ") are unmapped");
    u64& file_cursor = next_file[tier_idx];
    if (e.file_page != file_cursor)
      return entry_err(i, "tier file offset " + std::to_string(e.file_page) +
                              " not contiguous (expected " +
                              std::to_string(file_cursor) + ")");
    file_cursor += e.page_count;
    next_guest = e.guest_page_end();
  }
  if (next_guest != layout.guest_pages())
    return "region sizes sum to " + std::to_string(next_guest) +
           " pages, snapshot has " + std::to_string(layout.guest_pages());
  return std::nullopt;
}

u64 MemoryLayoutFile::entries_in(Tier t) const {
  u64 n = 0;
  for (const auto& e : entries_)
    if (e.tier == t) ++n;
  return n;
}

u64 MemoryLayoutFile::pages_in(Tier t) const {
  u64 n = 0;
  for (const auto& e : entries_)
    if (e.tier == t) n += e.page_count;
  return n;
}

double MemoryLayoutFile::slow_fraction() const {
  if (guest_pages_ == 0) return 0.0;
  u64 deep = 0;
  for (const auto& e : entries_)
    if (tier_rank(e.tier) != 0) deep += e.page_count;
  return static_cast<double>(deep) / static_cast<double>(guest_pages_);
}

}  // namespace toss
