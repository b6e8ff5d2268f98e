#include "vmm/layout.hpp"

namespace toss {

MemoryLayoutFile::MemoryLayoutFile(u64 guest_pages,
                                   std::vector<LayoutEntry> entries,
                                   size_t tier_count)
    : guest_pages_(guest_pages),
      tier_count_(tier_count),
      entries_(std::move(entries)) {}

bool MemoryLayoutFile::valid() const {
  return !validate_layout(*this).has_value();
}

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

u64 region_checksum(const std::vector<u32>& file, u64 file_page,
                    u64 page_count) {
  u64 h = 0xcbf29ce484222325ULL;
  for (u64 i = 0; i < page_count; ++i) {
    u64 v = file[file_page + i];
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

namespace {
// Version 3 is tier-indexed: a ladder-depth word follows guest_pages and
// entry tier tags may name any rank below it.
constexpr u64 kMagicV3 = 0x544f53534c415933ULL;  // "TOSSLAY3"

void put_u64(std::vector<u8>& out, u64 v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

bool get_u64(const std::vector<u8>& in, size_t& pos, u64& v) {
  if (pos + 8 > in.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(in[pos + i]) << (8 * i);
  pos += 8;
  return true;
}
}  // namespace

std::vector<u8> MemoryLayoutFile::serialize() const {
  std::vector<u8> out;
  out.reserve(32 + entries_.size() * 40);
  put_u64(out, kMagicV3);
  put_u64(out, guest_pages_);
  put_u64(out, static_cast<u64>(tier_count_));
  put_u64(out, entries_.size());
  for (const auto& e : entries_) {
    put_u64(out, static_cast<u64>(e.tier));
    put_u64(out, e.file_page);
    put_u64(out, e.guest_page);
    put_u64(out, e.page_count);
    put_u64(out, e.checksum);
  }
  return out;
}

std::optional<MemoryLayoutFile> MemoryLayoutFile::deserialize(
    const std::vector<u8>& bytes) {
  size_t pos = 0;
  u64 magic = 0, guest_pages = 0, tier_count = 0, count = 0;
  if (!get_u64(bytes, pos, magic) || magic != kMagicV3) return std::nullopt;
  if (!get_u64(bytes, pos, guest_pages)) return std::nullopt;
  if (!get_u64(bytes, pos, tier_count) || tier_count < 1 ||
      tier_count > kMaxTiers)
    return std::nullopt;
  if (!get_u64(bytes, pos, count)) return std::nullopt;
  std::vector<LayoutEntry> entries;
  entries.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    u64 tier = 0;
    LayoutEntry e;
    if (!get_u64(bytes, pos, tier) || tier >= tier_count) return std::nullopt;
    e.tier = static_cast<Tier>(tier);
    if (!get_u64(bytes, pos, e.file_page) ||
        !get_u64(bytes, pos, e.guest_page) ||
        !get_u64(bytes, pos, e.page_count) ||
        !get_u64(bytes, pos, e.checksum))
      return std::nullopt;
    entries.push_back(e);
  }
  MemoryLayoutFile layout(guest_pages, std::move(entries),
                          static_cast<size_t>(tier_count));
  if (!layout.valid()) return std::nullopt;
  return layout;
}

}  // namespace toss
