#include "platform/platform.hpp"

namespace toss {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kVanilla: return "vanilla";
    case PolicyKind::kReap: return "reap";
    case PolicyKind::kFaasnap: return "faasnap";
    case PolicyKind::kToss: return "toss";
  }
  return "?";
}

Result<void> FunctionRegistration::validate() const {
  if (spec_.name.empty())
    return {ErrorCode::kInvalidOptions, "function name must not be empty"};
  if (spec_.memory_mb == 0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": memory_mb must be >= 1"};
  const RetryPolicy& r = toss_options_.retry;
  if (r.max_attempts < 1)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": retry.max_attempts must be >= 1"};
  if (r.base_backoff_ns < 0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": retry.base_backoff_ns must be >= 0"};
  if (r.multiplier < 1.0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": retry.multiplier must be >= 1"};
  if (r.jitter < 0.0 || r.jitter > 1.0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": retry.jitter must be in [0, 1]"};
  if (toss_options_.slo_slowdown && *toss_options_.slo_slowdown < 0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": slo slowdown target must be >= 0"};
  if (breaker_.failure_threshold == 0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": breaker.failure_threshold must be >= 1"};
  if (breaker_.cooldown_invocations == 0)
    return {ErrorCode::kInvalidOptions,
            spec_.name + ": breaker.cooldown_invocations must be >= 1"};
  if (kind_ == PolicyKind::kToss) {
    const TossOptions& o = toss_options_;
    if (o.bin_count < 1)
      return {ErrorCode::kInvalidOptions, spec_.name + ": bin_count must be >= 1"};
    if (o.stable_invocations == 0)
      return {ErrorCode::kInvalidOptions,
              spec_.name + ": stable_invocations must be >= 1"};
    if (o.stable_invocations > o.max_profiling_invocations)
      return {ErrorCode::kInvalidOptions,
              spec_.name +
                  ": stable_invocations must be <= max_profiling_invocations"};
    if (o.unified_change_epsilon < 0 || o.unified_change_epsilon >= 1)
      return {ErrorCode::kInvalidOptions,
              spec_.name + ": unified_change_epsilon must be in [0, 1)"};
    if (o.slowdown_threshold && *o.slowdown_threshold < 0)
      return {ErrorCode::kInvalidOptions,
              spec_.name + ": slowdown_threshold must be >= 0"};
    if (o.reprofile_budget < 0)
      return {ErrorCode::kInvalidOptions,
              spec_.name + ": reprofile_budget must be >= 0"};
  }
  return {};
}

ServerlessPlatform::ServerlessPlatform(SystemConfig cfg, PricingPlan pricing,
                                       FaultPlan faults)
    : cfg_(std::move(cfg)), pricing_(pricing), store_(cfg_),
      invoker_(cfg_, store_) {
  // Attach the injector only when a plan is armed, so a fault-free run
  // keeps a null probe pointer everywhere.
  if (faults.armed()) {
    injector_ = std::make_unique<FaultInjector>(std::move(faults), /*salt=*/0);
    store_.attach_faults(injector_.get());
  }
}

Result<void> ServerlessPlatform::register_function(
    const FunctionRegistration& registration) {
  if (Result<void> valid = registration.validate(); !valid.ok()) return valid;
  const std::string& name = registration.spec().name;
  if (functions_.count(name) > 0)
    return {ErrorCode::kDuplicateFunction, name + " is already registered"};

  FunctionRuntime rt{FunctionModel(registration.spec()),
                     registration.policy(),
                     registration.toss_options(),
                     nullptr,
                     0,
                     std::nullopt,
                     FunctionStats{},
                     CircuitBreaker(registration.breaker_options()),
                     Rng(mix_seed(mix_seed(registration.seed(), name),
                                  "baseline-recovery"))};
  auto [it, _] = functions_.insert_or_assign(name, std::move(rt));
  if (registration.policy() == PolicyKind::kToss) {
    // Bind the TossFunction to the model at its final (node-stable) address
    // inside the map, only after the move above.
    it->second.toss = std::make_unique<TossFunction>(
        cfg_, store_, it->second.model, registration.toss_options(),
        registration.seed());
  }
  return {};
}

Result<InvocationOutcome> ServerlessPlatform::invoke(const std::string& name,
                                                     int input, u64 seed) {
  auto it = functions_.find(name);
  if (it == functions_.end())
    return {ErrorCode::kUnknownFunction, name + " is not registered"};
  if (input < 0 || input >= kNumInputs)
    return {ErrorCode::kInvalidRequest,
            name + ": input " + std::to_string(input) + " outside [0, " +
                std::to_string(kNumInputs) + ")"};
  FunctionRuntime& rt = it->second;

  InvocationOutcome out;
  if (rt.kind == PolicyKind::kToss) {
    // The TossFunction pins its FunctionModel by reference; rt.model never
    // moves after registration (node-based map), so the pointer into the
    // runtime stays valid.
    rt.toss->set_recovery_suspended(rt.breaker.should_suspend());
    const TossInvocationRecord rec = rt.toss->handle(input, seed);
    out.result = rec.result;
    out.toss_phase = rec.phase;
    out.cold_boot = rec.phase == TossPhase::kInitial ||
                    rec.recovery.fallback == FallbackLevel::kColdBoot;
    out.recovery = rec.recovery;
    rt.breaker.observe(rec.recovery.engaged());
  } else {
    out = invoke_baseline(rt, input, seed);
  }
  out.charge = charge_for(rt, out.result);

  FunctionStats& st = rt.stats;
  ++st.invocations;
  if (out.cold_boot) ++st.cold_boots;
  ++st.phase_invocations[static_cast<size_t>(out.toss_phase)];
  st.total_ns.record(out.result.total_ns());
  st.setup_ns.record(out.result.setup.setup_ns);
  st.exec_ns.record(out.result.exec.exec_ns);
  st.total_charge += out.charge;
  st.recovered_faults += out.recovery.faults_seen;
  st.recovery_retries += out.recovery.retries;
  if (out.recovery.fallback == FallbackLevel::kSingleTier)
    ++st.fallbacks_single_tier;
  else if (out.recovery.fallback == FallbackLevel::kColdBoot)
    ++st.fallbacks_cold_boot;
  if (out.recovery.quarantined) ++st.quarantines;
  if (out.recovery.regenerated) ++st.regenerations;
  if (out.recovery.breaker_suspended) ++st.breaker_suspended;
  if (!out.recovery.completed) ++st.incomplete;
  return out;
}

InvocationOutcome ServerlessPlatform::invoke_baseline(FunctionRuntime& rt,
                                                      int input, u64 seed) {
  InvocationOutcome out;
  RecoveryInfo& rc = out.recovery;
  const RetryPolicy& retry = rt.toss_options.retry;
  const Invocation inv = rt.model.invoke(input, seed);
  if (rt.snapshot_id == 0) {
    // First-ever request: cold boot, then snapshot. REAP/FaaSnap record
    // their working set during this invocation. A crash or torn snapshot
    // write retries the whole initial execution; on exhaustion the next
    // request starts cold again.
    out.cold_boot = true;
    if (retry.run(rt.recovery_rng, &rc, [&] {
          rt.snapshot_id =
              invoker_.initial_execution(rt.model, inv, &out.result);
        }) != RetryStatus::kOk) {
      // initial_execution reports timings before the snapshot write, so a
      // torn put still counts as a completed (if snapshot-less) run; only
      // an all-attempts crash leaves the result empty.
      rc.completed = out.result.exec.exec_ns > 0;
      out.result.setup.setup_ns += rc.overhead_ns;
      return out;
    }
    if (rt.kind == PolicyKind::kReap) {
      rt.ws = uffd_working_set(inv.trace, rt.model.guest_pages());
    } else if (rt.kind == PolicyKind::kFaasnap) {
      rt.ws = mincore_working_set(inv.trace, rt.model.guest_pages());
    }
    out.result.setup.setup_ns += rc.overhead_ns;
    return out;
  }
  bool restored = false;
  switch (rt.kind) {
    case PolicyKind::kVanilla: {
      VanillaPolicy policy(store_, rt.snapshot_id);
      restored = retry.run(rt.recovery_rng, &rc, [&] {
        out.result = invoker_.invoke(policy, inv);
      }) == RetryStatus::kOk;
      break;
    }
    case PolicyKind::kReap: {
      ReapPolicy policy(store_, rt.snapshot_id, *rt.ws);
      restored = retry.run(rt.recovery_rng, &rc, [&] {
        out.result = invoker_.invoke(policy, inv);
      }) == RetryStatus::kOk;
      break;
    }
    case PolicyKind::kFaasnap: {
      FaasnapPolicy policy(store_, rt.snapshot_id, *rt.ws);
      restored = retry.run(rt.recovery_rng, &rc, [&] {
        out.result = invoker_.invoke(policy, inv);
      }) == RetryStatus::kOk;
      break;
    }
    case PolicyKind::kToss:
      restored = true;  // handled by the caller
      break;
  }
  if (!restored) {
    // Terminal rung for baselines: re-run cold (which also regenerates the
    // snapshot, replacing whatever kept failing).
    rc.fallback = FallbackLevel::kColdBoot;
    out.cold_boot = true;
    if (retry.run(rt.recovery_rng, &rc, [&] {
          rt.snapshot_id =
              invoker_.initial_execution(rt.model, inv, &out.result);
        }) != RetryStatus::kOk)
      rc.completed = false;
  }
  out.result.setup.setup_ns += rc.overhead_ns;
  return out;
}

double ServerlessPlatform::charge_for(const FunctionRuntime& rt,
                                      const InvocationResult& result) const {
  const double duration_ms = to_ms(result.total_ns());
  const u64 mem_mb = rt.model.spec().memory_mb;
  if (rt.kind == PolicyKind::kToss && rt.toss &&
      rt.toss->phase() == TossPhase::kTiered && rt.toss->decision()) {
    const double slow_frac = rt.toss->decision()->slow_fraction;
    const u64 slow_mb =
        static_cast<u64>(slow_frac * static_cast<double>(mem_mb));
    return pricing_.tiered_invocation_cost(mem_mb - slow_mb, slow_mb,
                                           duration_ms);
  }
  return pricing_.dram_invocation_cost(mem_mb, duration_ms);
}

Result<std::vector<InvocationOutcome>> ServerlessPlatform::run(
    const std::string& name, const std::vector<Request>& requests) {
  std::vector<InvocationOutcome> outcomes;
  outcomes.reserve(requests.size());
  for (const Request& r : requests) {
    Result<InvocationOutcome> out = invoke(name, r.input, r.seed);
    if (!out.ok()) return {out.code(), out.message()};
    outcomes.push_back(std::move(out).value());
  }
  return outcomes;
}

const FunctionStats& ServerlessPlatform::stats(const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end())
    throw Error(ErrorCode::kUnknownFunction, name + " is not registered");
  return it->second.stats;
}

const TossFunction* ServerlessPlatform::toss_state(
    const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : it->second.toss.get();
}

const CircuitBreaker* ServerlessPlatform::breaker(
    const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second.breaker;
}

TossFunction* ServerlessPlatform::toss_state_mutable(const std::string& name) {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : it->second.toss.get();
}

ServerlessPlatform::ResidentBytes ServerlessPlatform::resident_bytes(
    const std::string& name) const {
  auto it = functions_.find(name);
  if (it == functions_.end()) return {};
  const FunctionRuntime& rt = it->second;
  ResidentBytes out;
  out.per_tier.assign(cfg_.tier_count(), 0);
  if (rt.kind == PolicyKind::kToss && rt.toss) {
    out.fast = rt.toss->fast_resident_bytes();
    out.slow = rt.toss->slow_resident_bytes();
    for (size_t r = 0; r < out.per_tier.size(); ++r)
      out.per_tier[r] = rt.toss->tier_resident_bytes(r);
    return out;
  }
  // Baselines restore (or boot) the whole image into DRAM; REAP/FaaSnap
  // prefetch less up front but fault the rest in on demand, so the steady
  // state resident set is still the full image.
  out.fast = rt.model.guest_bytes();
  out.per_tier[0] = out.fast;
  return out;
}

bool ServerlessPlatform::trip_breaker(const std::string& name) {
  auto it = functions_.find(name);
  if (it == functions_.end()) return false;
  it->second.breaker.trip();
  return true;
}

}  // namespace toss
