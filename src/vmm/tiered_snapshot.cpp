#include "vmm/tiered_snapshot.hpp"

#include <utility>

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
  out.tier_files_.resize(ranks);

  // One layout entry per placement run: the runs are maximal, so
  // neighbouring entries always differ in tier.
  std::vector<LayoutEntry> entries;
  entries.reserve(placement.runs().size());
  std::vector<u64> file_cursor(ranks, 0);
  for (const PageRun<Tier>& run : placement.runs()) {
    const size_t rank = tier_rank(run.value);
    TOSS_REQUIRE(rank < ranks, "placement rank outside the artifact ladder");
    LayoutEntry e;
    e.tier = run.value;
    e.guest_page = run.page_begin;
    e.page_count = run.page_count;
    e.file_page = file_cursor[rank];
    file_cursor[rank] += e.page_count;

    // Serial copy of the region's contents into the tier file, then seal
    // the region with its content checksum (verified again at restore).
    PageVersions& file = out.tier_files_[rank];
    file.append(snap.page_versions(), e.guest_page, e.page_count);
    e.checksum = region_checksum(file, e.file_page, e.page_count);
    entries.push_back(e);
  }
  out.layout_ = MemoryLayoutFile(snap.num_pages(), std::move(entries), ranks);
  // Step IV seam: the layout a restore will mmap from must tile guest
  // memory exactly; a violation here means corrupted restores later.
  TOSS_VALIDATE(validate_layout(out.layout_));
  // Every checksum above was computed from the contents held here.
  out.sealed_ = true;
  return out;
}

std::optional<std::string> TieredSnapshot::verify() const {
  if (const auto structural = validate_layout(layout_)) return structural;
  if (layout_.tier_count() != tier_files_.size())
    return "ladder depth mismatch: layout records " +
           std::to_string(layout_.tier_count()) + " tiers, artifact has " +
           std::to_string(tier_files_.size()) + " files";
  for (size_t r = 0; r < tier_files_.size(); ++r) {
    if (tier_pages(r) != layout_.pages_in(tier_index(r)))
      return std::string(tier_name(tier_index(r))) +
             " tier file truncated: " + std::to_string(tier_pages(r)) +
             " pages, layout expects " +
             std::to_string(layout_.pages_in(tier_index(r)));
  }
  if (sealed_) return std::nullopt;
  const auto& entries = layout_.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LayoutEntry& e = entries[i];
    const PageVersions& file = tier_files_[tier_rank(e.tier)];
    if (region_checksum(file, e.file_page, e.page_count) != e.checksum)
      return "entry " + std::to_string(i) + ": checksum mismatch over " +
             std::to_string(e.page_count) + " pages at file page " +
             std::to_string(e.file_page);
  }
  return std::nullopt;
}

void TieredSnapshot::corrupt_fast_page(u64 file_page) {
  if (file_page < fast_pages()) {
    tier_files_.front().update(file_page, 1, [](u32 v) { return v + 1; });
    sealed_ = false;
  }
}

void TieredSnapshot::truncate_fast_file() {
  if (fast_pages() > 0) {
    tier_files_.front().truncate(fast_pages() - 1);
    sealed_ = false;
  }
}

GuestMemory TieredSnapshot::materialize() const {
  // Layout entries tile the guest in guest order.
  PageVersions contents;
  for (const auto& e : layout_.entries())
    contents.append(tier_files_[tier_rank(e.tier)], e.file_page, e.page_count);
  return GuestMemory(std::move(contents));
}

}  // namespace toss
