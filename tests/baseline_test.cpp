// Tests for the baseline restore policies: vanilla lazy restore, REAP
// working-set prefetch, FaaSnap mincore-based loading.
#include <gtest/gtest.h>

#include "baseline/faasnap.hpp"
#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"
#include "platform/invoker.hpp"
#include "workloads/registry.hpp"

namespace toss {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  SystemConfig cfg = SystemConfig::paper_default();
  SnapshotStore store{cfg};
  Invoker invoker{cfg, store};
  FunctionRegistry reg = FunctionRegistry::table1();
  const FunctionModel& model = *reg.find("json_load_dump");

  u64 snapshot_for(const Invocation& inv) {
    return invoker.initial_execution(model, inv);
  }
};

TEST_F(BaselineTest, VanillaSingleMapping) {
  const Invocation inv = model.invoke(1, 7);
  const u64 snap_id = snapshot_for(inv);
  VanillaPolicy policy(store, snap_id);
  const RestorePlan plan = policy.plan_restore();
  EXPECT_EQ(plan.mapping_count(), 1u);
  EXPECT_TRUE(plan.eager.empty());
  EXPECT_EQ(plan.guest_pages, model.guest_pages());
  EXPECT_EQ(plan.mappings[0].page_count, model.guest_pages());
  EXPECT_FALSE(plan.mappings[0].dax);
}

TEST_F(BaselineTest, ReapEagerLoadsRecordedWorkingSet) {
  const Invocation first = model.invoke(2, 7);
  const u64 snap_id = snapshot_for(first);
  const WorkingSet ws = uffd_working_set(first.trace, model.guest_pages());
  ReapPolicy policy(store, snap_id, ws);
  const RestorePlan plan = policy.plan_restore();
  EXPECT_EQ(plan.eager_pages(), ws.size_pages());
  EXPECT_EQ(plan.mapping_count(), 1u);
}

TEST_F(BaselineTest, ReapSameInputFewFaults) {
  const Invocation first = model.invoke(2, 7);
  const u64 snap_id = snapshot_for(first);
  const WorkingSet ws = uffd_working_set(first.trace, model.guest_pages());
  ReapPolicy policy(store, snap_id, ws);

  // Same input, different seed: slight jitter, most of the WS overlaps.
  const Invocation again = model.invoke(2, 8);
  const InvocationResult r = invoker.invoke(policy, again);
  const u64 touched = again.trace.footprint_pages(model.guest_pages());
  EXPECT_LT(r.exec.major_faults, touched / 6);
}

TEST_F(BaselineTest, ReapInputMismatchManyFaults) {
  // Snapshot with the smallest input, execute the largest: the recorded WS
  // misses most of the large input's footprint (Observation #3 / Fig 3).
  const Invocation small = model.invoke(0, 7);
  const u64 snap_id = snapshot_for(small);
  const WorkingSet ws = uffd_working_set(small.trace, model.guest_pages());
  ReapPolicy policy(store, snap_id, ws);

  const Invocation big = model.invoke(3, 9);
  const InvocationResult mismatch = invoker.invoke(policy, big);

  const WorkingSet big_ws = uffd_working_set(big.trace, model.guest_pages());
  ReapPolicy matched(store, snap_id, big_ws);
  const InvocationResult match = invoker.invoke(matched, model.invoke(3, 9));

  EXPECT_GT(mismatch.exec.major_faults, match.exec.major_faults * 3);
  EXPECT_GT(mismatch.exec.exec_ns, match.exec.exec_ns);
}

TEST_F(BaselineTest, ReapSetupScalesWithWorkingSet) {
  const Invocation small = model.invoke(0, 7);
  const Invocation big = model.invoke(3, 7);
  const u64 snap_id = snapshot_for(big);
  ReapPolicy small_ws(store, snap_id,
                      uffd_working_set(small.trace, model.guest_pages()));
  ReapPolicy big_ws(store, snap_id,
                    uffd_working_set(big.trace, model.guest_pages()));
  store.drop_caches();
  MicroVm vm1(cfg, store);
  const auto s_small = vm1.restore(small_ws.plan_restore());
  store.drop_caches();
  MicroVm vm2(cfg, store);
  const auto s_big = vm2.restore(big_ws.plan_restore());
  EXPECT_GT(s_big.setup_ns, s_small.setup_ns);
  EXPECT_GT(s_big.eager_load_ns, s_small.eager_load_ns);
}

TEST_F(BaselineTest, FaasnapUsesInflatedWorkingSet) {
  const Invocation first = model.invoke(1, 7);
  const WorkingSet uffd = uffd_working_set(first.trace, model.guest_pages());
  const WorkingSet mincore =
      mincore_working_set(first.trace, model.guest_pages());
  EXPECT_GE(mincore.size_pages(), uffd.size_pages());
}

TEST_F(BaselineTest, FaasnapMappingsCoverGuest) {
  const Invocation first = model.invoke(1, 7);
  const u64 snap_id = snapshot_for(first);
  FaasnapPolicy policy(store, snap_id,
                       mincore_working_set(first.trace, model.guest_pages()));
  const RestorePlan plan = policy.plan_restore();
  u64 covered = 0;
  for (const auto& m : plan.mappings) covered += m.page_count;
  EXPECT_EQ(covered, model.guest_pages());
  EXPECT_GT(plan.mapping_count(), 1u);
}

TEST_F(BaselineTest, RestoredMemoryMatchesSnapshot) {
  const Invocation inv = model.invoke(1, 7);
  const u64 snap_id = snapshot_for(inv);
  VanillaPolicy policy(store, snap_id);
  MicroVm vm(cfg, store);
  vm.restore(policy.plan_restore());
  EXPECT_EQ(vm.memory(), store.get_single_tier(snap_id)->materialize());
}

}  // namespace
}  // namespace toss
