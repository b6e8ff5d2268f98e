#include "baseline/reap.hpp"

#include "util/contracts.hpp"

namespace toss {

ReapPolicy::ReapPolicy(const SnapshotStore& store, u64 snapshot_file_id,
                       WorkingSet ws)
    : store_(&store), snapshot_file_id_(snapshot_file_id), ws_(std::move(ws)) {
  const SingleTierSnapshot* snap = store_->get_single_tier(snapshot_file_id_);
  TOSS_REQUIRE(snap != nullptr);
  TOSS_REQUIRE(ws_.num_pages() == snap->num_pages());
  (void)snap;
}

RestorePlan ReapPolicy::plan_restore() const {
  const SingleTierSnapshot* snap = store_->get_single_tier(snapshot_file_id_);
  RestorePlan plan;
  plan.vm_state = snap->vm_state();
  plan.guest_pages = snap->num_pages();
  plan.mappings.push_back(RestoreMapping{
      /*guest_page=*/0, snap->num_pages(), tier_index(0), snap->file_id(),
      /*file_page=*/0, /*dax=*/false});
  // Eager prefetch of the recorded working set, one contiguous range at a
  // time (guest offsets == file offsets for a single-tier snapshot).
  for (const auto& [begin, count] : ws_.touched_ranges()) {
    plan.eager.push_back(
        EagerLoad{begin, count, snap->file_id(), /*file_page=*/begin});
  }
  return plan;
}

}  // namespace toss
