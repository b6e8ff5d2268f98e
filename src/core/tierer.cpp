#include "core/tierer.hpp"

#include "util/contracts.hpp"

namespace toss {

u64 tier_snapshot(SnapshotStore& store, const SingleTierSnapshot& snap,
                  const PagePlacement& placement) {
  // One file per ladder rank, ids allocated in rank order (so a two-tier
  // ladder allocates fast-then-slow exactly as before the ladder redesign).
  const size_t ranks = store.config().tier_count();
  std::vector<u64> file_ids;
  file_ids.reserve(ranks);
  for (size_t r = 0; r < ranks; ++r)
    file_ids.push_back(store.allocate_file_id());
  const u64 primary = file_ids.front();
  store.put_tiered(TieredSnapshot::build(snap, placement,
                                         std::move(file_ids)));
  return primary;
}

TossPolicy::TossPolicy(const SnapshotStore& store, u64 tiered_id)
    : store_(&store), tiered_id_(tiered_id) {
  TOSS_REQUIRE(store_->get_tiered(tiered_id_) != nullptr);
}

RestorePlan TossPolicy::plan_restore() const {
  const TieredSnapshot* snap = store_->get_tiered(tiered_id_);
  RestorePlan plan;
  plan.vm_state = snap->vm_state();
  plan.guest_pages = snap->guest_pages();
  for (const LayoutEntry& e : snap->layout().entries()) {
    RestoreMapping m;
    m.guest_page = e.guest_page;
    m.page_count = e.page_count;
    m.tier = e.tier;
    m.file_page = e.file_page;
    m.file_id = snap->file_id(tier_rank(e.tier));
    // Rank 0 is pinned in DRAM: its pages are exactly the memory the cost
    // model bills as the fast-tier share of the function, so they stay
    // resident between invocations (first touch is a minor fault, never a
    // disk read). Every deeper rank is mapped straight out of its device.
    m.dax = true;
    plan.mappings.push_back(m);
  }
  return plan;
}

}  // namespace toss
