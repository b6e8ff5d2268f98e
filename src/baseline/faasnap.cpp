#include "baseline/faasnap.hpp"

#include "util/contracts.hpp"

namespace toss {

FaasnapPolicy::FaasnapPolicy(const SnapshotStore& store, u64 snapshot_file_id,
                             WorkingSet ws)
    : store_(&store), snapshot_file_id_(snapshot_file_id), ws_(std::move(ws)) {
  TOSS_REQUIRE(store_->get_single_tier(snapshot_file_id_) != nullptr);
}

RestorePlan FaasnapPolicy::plan_restore() const {
  const SingleTierSnapshot* snap = store_->get_single_tier(snapshot_file_id_);
  RestorePlan plan;
  plan.vm_state = snap->vm_state();
  plan.guest_pages = snap->num_pages();
  // One mapping per contiguous WS range plus gap mappings for the rest of
  // guest memory, all from the single memory file.
  u64 cursor = 0;
  auto add_mapping = [&](u64 begin, u64 count) {
    plan.mappings.push_back(RestoreMapping{begin, count, tier_index(0),
                                           snap->file_id(), begin,
                                           /*dax=*/false});
  };
  for (const auto& [begin, count] : ws_.touched_ranges()) {
    if (begin > cursor) add_mapping(cursor, begin - cursor);
    add_mapping(begin, count);
    plan.eager.push_back(EagerLoad{begin, count, snap->file_id(), begin});
    cursor = begin + count;
  }
  if (cursor < snap->num_pages())
    add_mapping(cursor, snap->num_pages() - cursor);
  return plan;
}

}  // namespace toss
