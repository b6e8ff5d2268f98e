#include "common.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>

namespace toss::bench {

std::unique_ptr<TossFunction> run_toss_to_tiered(SimEnv& env,
                                                 const FunctionModel& model,
                                                 ProfileMix mix, u64 stable,
                                                 u64 max_invocations,
                                                 u64 seed) {
  TossOptions opt;
  opt.stable_invocations = stable;
  opt.max_profiling_invocations = max_invocations;
  auto toss = std::make_unique<TossFunction>(env.cfg, env.store, model, opt,
                                             seed);
  Rng rng(seed);
  // First request: for the input-IV snapshot everything is input IV; for
  // the all-inputs snapshot we cycle I..IV.
  for (u64 i = 0; i < max_invocations + 2; ++i) {
    const int input = mix == ProfileMix::kInputIvOnly
                          ? kNumInputs - 1
                          : static_cast<int>(i % kNumInputs);
    toss->handle(input, rng.next());
    if (toss->phase() == TossPhase::kTiered) return toss;
  }
  throw std::runtime_error("TOSS profiling did not converge for " +
                           model.name());
}

SnapshotWithWs make_snapshot(SimEnv& env, const FunctionModel& model,
                             int input, u64 seed) {
  const Invocation inv = model.invoke(input, seed);
  SnapshotWithWs out;
  out.snapshot_id = env.invoker.initial_execution(model, inv);
  out.ws = uffd_working_set(inv.trace, model.guest_pages());
  return out;
}

Nanos mean_warm_dram_ns(SimEnv& env, const FunctionModel& model, int input,
                        int iters, u64 seed_base) {
  OnlineStats st;
  for (int i = 0; i < iters; ++i)
    st.add(env.invoker.warm_dram_exec_ns(
        model.invoke(input, seed_base + static_cast<u64>(i))));
  return st.mean();
}

InvocationResult vanilla_invocation(SimEnv& env, u64 snapshot_id,
                                    const Invocation& inv) {
  VanillaPolicy policy(env.store, snapshot_id);
  return env.invoker.invoke(policy, inv);
}

InvocationResult reap_invocation(SimEnv& env, const SnapshotWithWs& snap,
                                 const Invocation& inv) {
  ReapPolicy policy(env.store, snap.snapshot_id, snap.ws);
  return env.invoker.invoke(policy, inv);
}

SoloRun dram_resident_run(SimEnv& env, const FunctionModel& m,
                          const Invocation& inv) {
  MicroVm vm(env.cfg, env.store);
  vm.boot(m.guest_bytes(), VmState{});
  vm.execute(inv.trace, inv.cpu_ns);  // populate residency
  const ExecutionResult warm = vm.execute(inv.trace, inv.cpu_ns);
  return SoloRun{warm, vm.demand()};
}

Nanos dram_resident_total_ns(SimEnv& env, const FunctionModel& m,
                             const Invocation& inv) {
  return dram_resident_setup_ns(env) +
         dram_resident_run(env, m, inv).exec.exec_ns;
}

Nanos dram_resident_setup_ns(const SimEnv& env) {
  return env.cfg.vmm.vm_state_load_ns + env.cfg.vmm.mmap_region_ns;
}

const char* roman(int input) {
  static const char* kRoman[] = {"I", "II", "III", "IV"};
  return kRoman[input];
}

SystemConfig ladder_config_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view v;
    if (arg.rfind("--ladder=", 0) == 0)
      v = arg.substr(9);
    else if (arg.rfind("--config=", 0) == 0)
      v = arg.substr(9);
    else
      continue;
    if (v == "2" || v == "paper") return SystemConfig::paper_default();
    if (v == "3" || v == "cxl") return SystemConfig::cxl_host();
    if (v == "4" || v == "nvme") return SystemConfig::nvme_host();
    throw std::runtime_error("unknown --ladder/--config value: " +
                             std::string(v));
  }
  return SystemConfig::paper_default();
}

std::string ladder_label(const SystemConfig& cfg) {
  std::string out = std::to_string(cfg.tier_count()) + "-tier (";
  for (size_t r = 0; r < cfg.tier_count(); ++r) {
    if (r) out += "/";
    out += cfg.tiers[r].name;
  }
  return out + ")";
}

std::string artifact_dir(int argc, char** argv) {
  std::string dir = TOSS_BENCH_OUT_DIR;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0)
      dir = std::string(arg.substr(10));
  }
  std::filesystem::create_directories(dir);
  return dir;
}

std::string artifact_path(int argc, char** argv,
                          const std::string& filename) {
  return (std::filesystem::path(artifact_dir(argc, argv)) / filename)
      .string();
}

namespace {

FunctionRegistration soak_lane(size_t i, u64 seed_base) {
  // The soak's cost is lane count, not per-invocation page volume.
  constexpr size_t kSmallSpecs = 3;
  FunctionSpec spec = workloads::all_functions()[i % kSmallSpecs];
  spec.name += "#" + std::to_string(i);
  TossOptions fast;
  fast.stable_invocations = 4;
  fast.max_profiling_invocations = 16;
  return FunctionRegistration(std::move(spec))
      .policy(PolicyKind::kToss)
      .toss(fast)
      .seed(seed_base + i);
}

}  // namespace

u64 SoakFleet::host_budget(const SystemConfig& cfg) const {
  u64 total = 0, largest = 0;
  for (size_t i = 0; i < lanes; ++i) {
    const u64 d = predicted_fast_demand(cfg, soak_lane(i, lane_seed_base));
    total += d;
    largest = std::max(largest, d);
  }
  return (total + total * 2 / 5 + 2 * largest * hosts) / hosts;
}

void SoakFleet::add_to(ClusterEngine& cluster, u64 seed,
                       size_t requests_per_lane, size_t hog_requests) const {
  for (size_t i = 0; i < lanes; ++i)
    cluster
        .add(soak_lane(i, lane_seed_base),
             RequestGenerator::round_robin(
                 requests_per_lane, mix_seed(seed, "lane" + std::to_string(i))))
        .value();
  // The hog never converges, so it never leaves profiling.
  FunctionSpec hog = workloads::all_functions().back();
  hog.name = "hog";
  TossOptions never_tiers;
  never_tiers.stable_invocations = 1u << 20;
  never_tiers.max_profiling_invocations = 1u << 20;
  cluster
      .add(FunctionRegistration(std::move(hog))
               .policy(PolicyKind::kToss)
               .toss(never_tiers)
               .seed(hog_seed),
           RequestGenerator::round_robin(hog_requests, mix_seed(seed, "hog")))
      .value();
}

}  // namespace toss::bench
