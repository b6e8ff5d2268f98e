#include "vmm/tiered_snapshot.hpp"

#include "util/contracts.hpp"

namespace toss {

TieredSnapshot TieredSnapshot::build(const SingleTierSnapshot& snap,
                                     const PagePlacement& placement,
                                     std::vector<u64> file_ids) {
  TOSS_REQUIRE(placement.num_pages() == snap.num_pages(),
               "placement must cover the snapshot exactly");
  TOSS_REQUIRE(!file_ids.empty() && file_ids.size() <= kMaxTiers);
  TieredSnapshot out;
  out.vm_state_ = snap.vm_state();
  out.file_ids_ = std::move(file_ids);
  const size_t ranks = out.file_ids_.size();
  out.tier_versions_.resize(ranks);

  std::vector<LayoutEntry> entries;
  const u64 n = snap.num_pages();
  u64 begin = 0;
  std::vector<u64> file_cursor(ranks, 0);
  while (begin < n) {
    const Tier t = placement.tier_of(begin);
    const size_t rank = tier_rank(t);
    TOSS_REQUIRE(rank < ranks, "placement rank outside the artifact ladder");
    u64 end = begin + 1;
    while (end < n && placement.tier_of(end) == t) ++end;
    LayoutEntry e;
    e.tier = t;
    e.guest_page = begin;
    e.page_count = end - begin;
    e.file_page = file_cursor[rank];
    file_cursor[rank] += e.page_count;
    entries.push_back(e);

    // Serial copy of the region's contents into the tier file, then seal
    // the region with its content checksum (verified again at restore).
    auto& file = out.tier_versions_[rank];
    const auto& source = snap.page_versions();
    file.insert(file.end(),
                source.begin() + static_cast<std::ptrdiff_t>(begin),
                source.begin() + static_cast<std::ptrdiff_t>(end));
    entries.back().checksum =
        region_checksum(file, entries.back().file_page, e.page_count);
    begin = end;
  }
  out.layout_ = MemoryLayoutFile(n, std::move(entries), ranks);
  // Step IV seam: the layout a restore will mmap from must tile guest
  // memory exactly; a violation here means corrupted restores later.
  TOSS_VALIDATE(validate_layout(out.layout_));
  // Every checksum above was computed from the contents held here.
  out.sealed_ = true;
  return out;
}

TieredSnapshot::Location TieredSnapshot::locate(u64 guest_page) const {
  for (const auto& e : layout_.entries()) {
    if (guest_page >= e.guest_page && guest_page < e.guest_page_end())
      return Location{e.tier, e.file_page + (guest_page - e.guest_page)};
  }
  TOSS_ASSERT(false, "guest page outside layout");
  return Location{tier_index(0), 0};
}

namespace {
// Version 2 stores a ladder of tier files.
constexpr u64 kMagicV2 = 0x544f535354495232ULL;  // "TOSSTIR2"

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

void put_blob(std::vector<u8>& out, const std::vector<u8>& blob) {
  put_u64(out, blob.size());
  out.insert(out.end(), blob.begin(), blob.end());
}

bool get_blob(const std::vector<u8>& in, size_t& pos, std::vector<u8>& blob) {
  u64 size = 0;
  if (!get_u64(in, pos, size) || pos + size > in.size()) return false;
  blob.assign(in.begin() + static_cast<std::ptrdiff_t>(pos),
              in.begin() + static_cast<std::ptrdiff_t>(pos + size));
  pos += size;
  return true;
}

void put_versions(std::vector<u8>& out, const std::vector<u32>& vs) {
  put_u64(out, vs.size());
  for (u32 v : vs)
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

bool get_versions(const std::vector<u8>& in, size_t& pos,
                  std::vector<u32>& vs) {
  u64 count = 0;
  if (!get_u64(in, pos, count) || pos + count * 4 > in.size()) return false;
  vs.resize(count);
  for (u64 i = 0; i < count; ++i) {
    u32 v = 0;
    for (int b = 0; b < 4; ++b)
      v |= static_cast<u32>(in[pos + i * 4 + static_cast<u64>(b)]) << (8 * b);
    vs[i] = v;
  }
  pos += count * 4;
  return true;
}
}  // namespace

std::vector<u8> TieredSnapshot::serialize() const {
  std::vector<u8> out;
  put_u64(out, kMagicV2);
  put_u64(out, file_ids_.size());
  for (u64 id : file_ids_) put_u64(out, id);
  put_blob(out, vm_state_.serialize());
  put_blob(out, layout_.serialize());
  for (const auto& vs : tier_versions_) put_versions(out, vs);
  return out;
}

std::optional<TieredSnapshot> TieredSnapshot::deserialize(
    const std::vector<u8>& bytes) {
  size_t pos = 0;
  u64 magic = 0;
  TieredSnapshot snap;
  if (!get_u64(bytes, pos, magic) || magic != kMagicV2) return std::nullopt;
  u64 ranks = 0;
  if (!get_u64(bytes, pos, ranks) || ranks < 1 || ranks > kMaxTiers)
    return std::nullopt;
  snap.file_ids_.resize(ranks);
  for (u64 r = 0; r < ranks; ++r)
    if (!get_u64(bytes, pos, snap.file_ids_[r])) return std::nullopt;
  std::vector<u8> blob;
  if (!get_blob(bytes, pos, blob)) return std::nullopt;
  const auto state = VmState::deserialize(blob);
  if (!state) return std::nullopt;
  snap.vm_state_ = *state;
  if (!get_blob(bytes, pos, blob)) return std::nullopt;
  const auto layout = MemoryLayoutFile::deserialize(blob);
  if (!layout) return std::nullopt;
  snap.layout_ = *layout;
  if (snap.layout_.tier_count() != ranks) return std::nullopt;
  snap.tier_versions_.resize(ranks);
  for (u64 r = 0; r < ranks; ++r)
    if (!get_versions(bytes, pos, snap.tier_versions_[r])) return std::nullopt;
  // Cross-checks: each tier file must match the layout's page counts.
  for (u64 r = 0; r < ranks; ++r)
    if (snap.tier_versions_[r].size() != snap.layout_.pages_in(tier_index(r)))
      return std::nullopt;
  return snap;
}

std::optional<std::string> TieredSnapshot::verify() const {
  if (const auto structural = validate_layout(layout_)) return structural;
  if (layout_.tier_count() != tier_versions_.size())
    return "ladder depth mismatch: layout records " +
           std::to_string(layout_.tier_count()) + " tiers, artifact has " +
           std::to_string(tier_versions_.size()) + " files";
  for (size_t r = 0; r < tier_versions_.size(); ++r) {
    if (tier_versions_[r].size() != layout_.pages_in(tier_index(r)))
      return std::string(tier_name(tier_index(r))) +
             " tier file truncated: " +
             std::to_string(tier_versions_[r].size()) +
             " pages, layout expects " +
             std::to_string(layout_.pages_in(tier_index(r)));
  }
  if (sealed_) return std::nullopt;
  const auto& entries = layout_.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LayoutEntry& e = entries[i];
    const auto& file = tier_versions_[tier_rank(e.tier)];
    if (region_checksum(file, e.file_page, e.page_count) != e.checksum)
      return "entry " + std::to_string(i) + ": checksum mismatch over " +
             std::to_string(e.page_count) + " pages at file page " +
             std::to_string(e.file_page);
  }
  return std::nullopt;
}

void TieredSnapshot::corrupt_fast_page(u64 file_page) {
  if (file_page < tier_versions_.front().size()) {
    ++tier_versions_.front()[file_page];
    sealed_ = false;
  }
}

void TieredSnapshot::truncate_fast_file() {
  if (!tier_versions_.front().empty()) {
    tier_versions_.front().pop_back();
    sealed_ = false;
  }
}

GuestMemory TieredSnapshot::materialize() const {
  GuestMemory mem(bytes_for_pages(guest_pages()));
  for (const auto& e : layout_.entries())
    mem.copy_versions(e.guest_page, tier_versions_[tier_rank(e.tier)],
                      e.file_page, e.page_count);
  return mem;
}

}  // namespace toss
