#include "vmm/snapshot_store.hpp"

namespace toss {

SnapshotStore::SnapshotStore(const SystemConfig& cfg) : cfg_(&cfg) {}

u64 SnapshotStore::allocate_file_id() { return next_file_id_++; }

u64 SnapshotStore::put_single_tier(const GuestMemory& memory,
                                   const VmState& state) {
  // Stage first (the "temp file"): a torn write aborts before any store
  // state — including the id counter — changes, so the previous snapshot
  // generation stays the one readers see.
  if (faults_ && faults_->should_fire(FaultSite::kPutSingleTier))
    throw Error(ErrorCode::kTransientIo,
                "torn write persisting single-tier snapshot");
  const u64 id = allocate_file_id();
  single_tier_.emplace(id, SingleTierSnapshot(id, memory, state));
  return id;
}

const SingleTierSnapshot* SnapshotStore::get_single_tier(u64 file_id) const {
  auto it = single_tier_.find(file_id);
  return it == single_tier_.end() ? nullptr : &it->second;
}

void SnapshotStore::put_tiered(TieredSnapshot snapshot) {
  // The tiered artifact is one file per ladder rank plus the layout; the
  // rename step publishes all of them at once. A torn write fires before
  // the alias or artifact maps are touched.
  if (faults_ && faults_->should_fire(FaultSite::kPutTiered))
    throw Error(ErrorCode::kTransientIo,
                "torn write persisting tiered snapshot");
  const u64 primary = snapshot.fast_file_id();
  for (size_t r = 1; r < snapshot.tier_count(); ++r)
    tiered_alias_.emplace(snapshot.file_id(r), primary);
  tiered_.emplace(primary, std::move(snapshot));
}

u64 SnapshotStore::resolve_tiered(u64 file_id) const {
  if (auto alias = tiered_alias_.find(file_id); alias != tiered_alias_.end())
    return alias->second;
  return file_id;
}

TieredSnapshot* SnapshotStore::find_tiered(u64 file_id) {
  auto it = tiered_.find(resolve_tiered(file_id));
  return it == tiered_.end() ? nullptr : &it->second;
}

const TieredSnapshot* SnapshotStore::get_tiered(u64 file_id) const {
  const u64 fast_id = resolve_tiered(file_id);
  if (quarantined_.count(fast_id) > 0) return nullptr;
  auto it = tiered_.find(fast_id);
  return it == tiered_.end() ? nullptr : &it->second;
}

const SingleTierSnapshot& SnapshotStore::fetch_single_tier(
    u64 file_id) const {
  const SingleTierSnapshot* snap = get_single_tier(file_id);
  if (snap == nullptr)
    throw Error(ErrorCode::kSnapshotMissing,
                "single-tier snapshot file " + std::to_string(file_id) +
                    " not found");
  return *snap;
}

const TieredSnapshot& SnapshotStore::fetch_tiered(u64 file_id) {
  // At-rest damage is discovered at read time: arm the corruption sites
  // before the lookup so the caller's verify pass sees what a real store
  // would hand back.
  if (faults_ != nullptr) {
    if (faults_->should_fire(FaultSite::kTierBitrot)) {
      if (TieredSnapshot* snap = find_tiered(file_id);
          snap != nullptr && snap->fast_pages() > 0)
        snap->corrupt_fast_page(
            faults_->draw(FaultSite::kTierBitrot, snap->fast_pages()));
    }
    if (faults_->should_fire(FaultSite::kTierTruncate)) {
      if (TieredSnapshot* snap = find_tiered(file_id)) snap->truncate_fast_file();
    }
  }
  const TieredSnapshot* snap = get_tiered(file_id);
  if (snap == nullptr)
    throw Error(ErrorCode::kSnapshotMissing,
                "tiered snapshot file " + std::to_string(file_id) +
                    (is_quarantined(file_id) ? " is quarantined"
                                             : " not found"));
  return *snap;
}

Result<void> SnapshotStore::verify_tiered(u64 file_id) const {
  const TieredSnapshot* snap = get_tiered(file_id);
  if (snap == nullptr)
    return {ErrorCode::kSnapshotMissing,
            "tiered snapshot file " + std::to_string(file_id) +
                (is_quarantined(file_id) ? " is quarantined" : " not found")};
  if (const auto violation = snap->verify())
    return {ErrorCode::kSnapshotCorrupted,
            "tiered snapshot file " + std::to_string(file_id) + ": " +
                *violation};
  return {};
}

bool SnapshotStore::erase_tiered(u64 file_id) {
  const u64 fast_id = resolve_tiered(file_id);
  auto it = tiered_.find(fast_id);
  if (it == tiered_.end() || quarantined_.count(fast_id) > 0) return false;
  for (size_t r = 1; r < it->second.tier_count(); ++r)
    tiered_alias_.erase(it->second.file_id(r));
  tiered_.erase(it);
  return true;
}

void SnapshotStore::quarantine_tiered(u64 file_id) {
  const u64 fast_id = resolve_tiered(file_id);
  if (tiered_.count(fast_id) > 0) quarantined_.insert(fast_id);
}

bool SnapshotStore::is_quarantined(u64 file_id) const {
  return quarantined_.count(resolve_tiered(file_id)) > 0;
}

bool SnapshotStore::corrupt_tiered_page(u64 file_id, u64 fast_file_page) {
  TieredSnapshot* snap = find_tiered(file_id);
  if (snap == nullptr || fast_file_page >= snap->fast_pages()) return false;
  snap->corrupt_fast_page(fast_file_page);
  return true;
}

bool SnapshotStore::truncate_tiered(u64 file_id) {
  TieredSnapshot* snap = find_tiered(file_id);
  if (snap == nullptr || snap->fast_pages() == 0) return false;
  snap->truncate_fast_file();
  return true;
}

Nanos SnapshotStore::seq_read_ns(u64 bytes) const {
  return static_cast<double>(bytes) / cfg_->disk.seq_read_bw_bytes_per_ns;
}

}  // namespace toss
