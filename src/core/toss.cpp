#include "core/toss.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"
#include "util/error.hpp"

namespace toss {

TossFunction::TossFunction(const SystemConfig& cfg, SnapshotStore& store,
                           const FunctionModel& model, TossOptions options,
                           u64 seed)
    : cfg_(&cfg),
      store_(&store),
      model_(&model),
      options_(options),
      rng_(mix_seed(seed, model.name())),
      recovery_rng_(mix_seed(mix_seed(seed, model.name()), "recovery")),
      damon_(options.damon),
      reprofiler_(options.reprofile_budget) {}

const TieredSnapshot* TossFunction::tiered_snapshot() const {
  return tiered_id_ ? store_->get_tiered(tiered_id_) : nullptr;
}

u64 TossFunction::fast_resident_bytes() const {
  if (phase_ == TossPhase::kTiered)
    if (const TieredSnapshot* t = tiered_snapshot())
      return bytes_for_pages(t->fast_pages());
  // Single-tier restores and cold boots pin the whole image in DRAM.
  return model_->guest_bytes();
}

u64 TossFunction::slow_resident_bytes() const {
  if (phase_ == TossPhase::kTiered)
    if (const TieredSnapshot* t = tiered_snapshot())
      return bytes_for_pages(t->slow_pages());
  return 0;
}

u64 TossFunction::tier_resident_bytes(size_t rank) const {
  if (phase_ == TossPhase::kTiered)
    if (const TieredSnapshot* t = tiered_snapshot())
      return rank < t->tier_count() ? bytes_for_pages(t->tier_pages(rank))
                                    : 0;
  return rank == 0 ? model_->guest_bytes() : 0;
}

TossInvocationRecord TossFunction::handle(int input, u64 invocation_seed) {
  if (options_.drop_caches_between_invocations) store_->drop_caches();
  const Invocation inv = model_->invoke(input, invocation_seed);
  TossInvocationRecord rec;
  switch (phase_) {
    case TossPhase::kInitial:
      rec = handle_initial(inv);
      break;
    case TossPhase::kProfiling:
      rec = handle_profiling(inv);
      break;
    case TossPhase::kTiered:
      rec = handle_tiered(inv);
      break;
  }
  // Backoff is simulated time: charge it to setup so degradation under
  // injected faults is visible in end-to-end latency, not hidden.
  rec.result.setup.setup_ns += rec.recovery.overhead_ns;
  return rec;
}

RetryStatus TossFunction::restore_execute(MicroVm& vm, const RestorePlan& plan,
                                          const Invocation& inv,
                                          InvocationResult* out,
                                          RecoveryInfo* recovery) {
  return options_.retry.run(recovery_rng_, recovery, [&] {
    InvocationResult r;
    r.setup = vm.restore(plan);
    r.exec = vm.execute(inv.trace, inv.cpu_ns);
    *out = r;
  });
}

RetryStatus TossFunction::boot_execute(MicroVm& vm, const Invocation& inv,
                                       InvocationResult* out,
                                       RecoveryInfo* recovery) {
  return options_.retry.run(recovery_rng_, recovery, [&] {
    InvocationResult r;
    r.setup = vm.boot(model_->guest_bytes(), VmState{});
    r.exec = vm.execute(inv.trace, inv.cpu_ns);
    *out = r;
  });
}

void TossFunction::cold_boot_rung(MicroVm& vm, const Invocation& inv,
                                  TossInvocationRecord& rec) {
  rec.recovery.fallback = FallbackLevel::kColdBoot;
  if (boot_execute(vm, inv, &rec.result, &rec.recovery) != RetryStatus::kOk)
    rec.recovery.completed = false;
  // A cold start's authoritative contents are the fresh guest image.
  rec.recovery.expected_hash =
      hash_memory(GuestMemory(model_->guest_bytes()));
  rec.recovery.memory_hash = hash_memory(vm.memory());
}

void TossFunction::record_oracle(const MicroVm& vm,
                                 const SingleTierSnapshot& authority,
                                 RecoveryInfo* recovery) {
  recovery->expected_hash = authority.content_hash();
  recovery->memory_hash = hash_memory_against(
      vm.memory(), authority.page_versions(), authority.content_hash());
}

void TossFunction::replace_tiered(u64 id) {
  // The superseded artifact's tier files are dead weight in the lane's
  // store; quarantined ones stay (erase_tiered leaves them alone).
  if (tiered_id_ != 0 && tiered_id_ != id) store_->erase_tiered(tiered_id_);
  tiered_id_ = id;
}

void TossFunction::quarantine_and_rearm(RecoveryInfo* recovery) {
  if (tiered_id_ != 0) {
    store_->quarantine_tiered(tiered_id_);
    recovery->quarantined = store_->is_quarantined(tiered_id_);
  }
  // Step V, fault-driven: drop the damaged artifact and regress to
  // profiling so fresh DAMON records rebuild the tiered snapshot. The
  // unified pattern is retained, so the rebuild typically lands after one
  // additional profiled invocation.
  tiered_id_ = 0;
  regeneration_pending_ = true;
  phase_ = TossPhase::kProfiling;
}

TossInvocationRecord TossFunction::handle_initial(const Invocation& inv) {
  TossInvocationRecord rec;
  rec.phase = TossPhase::kInitial;
  RecoveryInfo& rc = rec.recovery;

  // Step I: run in a DRAM-only guest, snapshot after execution completes.
  MicroVm vm(*cfg_, *store_);
  if (boot_execute(vm, inv, &rec.result, &rc) != RetryStatus::kOk) {
    // Every attempt crashed mid-run. Report the failed invocation and stay
    // in Step I; the next invocation restarts it from scratch.
    rc.completed = false;
    rc.memory_hash = hash_memory(vm.memory());
    rc.expected_hash = rc.memory_hash;
    return rec;
  }
  vm.apply_writes(inv.trace);

  // Persist the Step-I snapshot. A torn write is retried; if every attempt
  // tears, the invocation still completes (the caller got its result) and
  // Step I re-runs wholesale next time.
  rec.snapshot_created =
      options_.retry.run(recovery_rng_, &rc, [&] {
        single_tier_id_ = vm.take_snapshot();
      }) == RetryStatus::kOk;
  if (rec.snapshot_created) {
    // Oracle: the persisted snapshot must round-trip the guest exactly.
    record_oracle(vm, store_->fetch_single_tier(single_tier_id_), &rc);
    unified_.emplace(model_->guest_pages(), options_.unified_change_epsilon);
    largest_ = Largest{inv.input, inv.seed, rec.result.exec.exec_ns};
    phase_ = TossPhase::kProfiling;
  } else {
    rc.memory_hash = hash_memory(vm.memory());
    rc.expected_hash = rc.memory_hash;
  }
  return rec;
}

TossInvocationRecord TossFunction::handle_profiling(const Invocation& inv) {
  TossInvocationRecord rec;
  rec.phase = TossPhase::kProfiling;
  RecoveryInfo& rc = rec.recovery;
  rc.breaker_suspended = suspended_;

  MicroVm vm(*cfg_, *store_);
  const SingleTierSnapshot* snap = store_->get_single_tier(single_tier_id_);
  RetryStatus status = RetryStatus::kBroken;
  if (snap != nullptr) {
    VanillaPolicy vanilla(*store_, single_tier_id_);
    status = restore_execute(vm, vanilla.plan_restore(), inv, &rec.result, &rc);
  }
  if (status != RetryStatus::kOk) {
    // No usable Step-I snapshot for this invocation: serve cold. DAMON is
    // skipped — it rides the restored snapshot — so profiling resumes on
    // the next successful restore.
    cold_boot_rung(vm, inv, rec);
    return rec;
  }

  // Step II: account DAMON's overhead on top of the measured execution.
  ExecutionResult exec = rec.result.exec;
  const PageAccessCounts true_counts =
      PageAccessCounts::from_trace(inv.trace, model_->guest_pages());
  const DamonOutput damon_out =
      damon_.monitor(true_counts, exec.exec_ns, rng_);
  exec.profiling_overhead_ns = damon_out.overhead_ns;
  exec.exec_ns += damon_out.overhead_ns;
  rec.result.exec = exec;
  ++damon_invocations_;

  record_oracle(vm, *snap, &rc);

  if (!largest_ || exec.exec_ns > largest_->exec_ns)
    largest_ = Largest{inv.input, inv.seed, exec.exec_ns};

  unified_->add_record(damon_out.record);
  const bool converged =
      unified_->stable_streak() >= options_.stable_invocations ||
      unified_->records_merged() >= options_.max_profiling_invocations;
  // While the circuit breaker holds the lane suspended, convergence does
  // not trigger re-analysis — no point rebuilding an artifact the lane
  // would refuse to restore from.
  if (converged && !suspended_ && run_analysis(&rc)) {
    rec.tiered_created = true;
    if (regeneration_pending_) {
      rc.regenerated = true;
      regeneration_pending_ = false;
    }
  }
  return rec;
}

TieringOptions TossFunction::tiering_options(const RetierBound& bound) const {
  TieringOptions topt;
  topt.bin_count = options_.bin_count;
  topt.slowdown_threshold = options_.slowdown_threshold;
  topt.slo_slowdown = options_.slo_slowdown;
  topt.min_descent_prefix = bound.min_descent_prefix;
  return topt;
}

void TossFunction::arm_reprofiler() {
  // Arm the re-generation trigger (Eqs 2-4).
  std::vector<double> bin_slowdowns;
  bin_slowdowns.reserve(decision_->profile.steps.size());
  for (const BinStep& s : decision_->profile.steps)
    bin_slowdowns.push_back(s.marginal_slowdown);
  reprofiler_ = ReprofilePolicy(options_.reprofile_budget);
  reprofiler_.arm(damon_invocations_, bin_slowdowns, largest_->exec_ns,
                  std::max(0.0, decision_->profile.full_slow_slowdown() - 1.0));
}

bool TossFunction::run_analysis(RecoveryInfo* recovery) {
  TOSS_ASSERT(unified_ && largest_);
  // Step III on the unified pattern, profiled against the largest
  // (longest-running) invocation encountered while profiling.
  const Invocation representative =
      model_->invoke(largest_->input, largest_->seed);
  PackedPattern packed = pack_pattern(unified_->counts(), options_.bin_count);
  decision_ = choose_placement(*cfg_, packed.bins, packed.zero_regions,
                               unified_->counts().num_pages(), representative,
                               tiering_options(bound_));
  bins_ = std::move(packed.bins);

  const SingleTierSnapshot* snap = store_->get_single_tier(single_tier_id_);
  TOSS_ASSERT(snap != nullptr);

  // Step IV with torn-write retry. On exhaustion the analysis is kept but
  // the function stays in profiling; the next convergence check re-attempts
  // persistence.
  u64 id = 0;
  if (options_.retry.run(recovery_rng_, recovery, [&] {
        id = tier_snapshot(*store_, *snap, decision_->placement);
      }) != RetryStatus::kOk)
    return false;
  replace_tiered(id);
  arm_reprofiler();
  phase_ = TossPhase::kTiered;
  return true;
}

bool TossFunction::retier(RetierBound bound) {
  if (phase_ != TossPhase::kTiered || !decision_) return false;
  const SingleTierSnapshot* snap = store_->get_single_tier(single_tier_id_);
  if (snap == nullptr) return false;

  // kTiered is entered only through run_analysis, and every way out of it
  // passes through run_analysis again, so the kept profile and bins are
  // the current Step III's: re-pick from them instead of re-running it.
  TieringDecision d = select_placement(*cfg_, decision_->profile, bins_,
                                       tiering_options(bound));
  // Persist the re-placed artifact; bounded torn-write retry. No recovery
  // ledger: demotions run between requests at the engine's epoch barrier,
  // not inside an invocation, so no backoff is charged and recovery_rng_
  // is left untouched — the lane's fault/backoff streams stay bit-identical
  // to a run without arbiter activity.
  u64 id = 0;
  if (options_.retry.run(recovery_rng_, nullptr, [&] {
        id = tier_snapshot(*store_, *snap, d.placement);
      }) != RetryStatus::kOk)
    return false;  // keep serving the current artifact
  replace_tiered(id);
  decision_ = std::move(d);
  bound_ = bound;
  arm_reprofiler();
  return true;
}

TossInvocationRecord TossFunction::handle_tiered(const Invocation& inv) {
  TossInvocationRecord rec;
  rec.phase = TossPhase::kTiered;
  RecoveryInfo& rc = rec.recovery;
  rc.breaker_suspended = suspended_;

  MicroVm vm(*cfg_, *store_);
  bool use_tiered = !suspended_;
  if (use_tiered) {
    // Fetch (which is where at-rest damage surfaces) and verify the layout
    // checksums before trusting the artifact for a restore.
    try {
      store_->fetch_tiered(tiered_id_);
      if (const Result<void> v = store_->verify_tiered(tiered_id_); !v.ok()) {
        ++rc.faults_seen;
        quarantine_and_rearm(&rc);
        use_tiered = false;
      }
    } catch (const Error&) {
      // Missing (or already quarantined): nothing to verify or restore.
      quarantine_and_rearm(&rc);
      use_tiered = false;
    }
  }

  if (use_tiered) {
    TossPolicy policy(*store_, tiered_id_);
    const RetryStatus status =
        restore_execute(vm, policy.plan_restore(), inv, &rec.result, &rc);
    if (status == RetryStatus::kOk) {
      // The retained Step-I snapshot is the authority the tiered restore
      // must reproduce bit-exactly.
      if (const SingleTierSnapshot* authority =
              store_->get_single_tier(single_tier_id_)) {
        record_oracle(vm, *authority, &rc);
      } else {
        rc.memory_hash = hash_memory(vm.memory());
        rc.expected_hash = rc.memory_hash;
      }
      // While the arbiter holds a non-trivial bound, the extra slowdown is
      // intentional degradation, not access-pattern drift — re-profiling
      // would bounce the lane back to kProfiling (whose demand is the whole
      // guest image in DRAM), defeating the demotion. The trigger re-arms
      // when the bound is lifted by promotion.
      if (reprofiler_.observe(rec.result.exec.exec_ns) && bound_.trivial()) {
        // Drift detected: re-enter profiling. The unified pattern is kept
        // (the goal is to *enhance* the snapshot with the new behaviour)
        // but the stability requirement restarts via new record merges.
        rec.reprofile_triggered = true;
        phase_ = TossPhase::kProfiling;
      }
      return rec;
    }
    if (status == RetryStatus::kBroken) {
      // Verified clean but the restore still found it unusable (e.g. a
      // truncation raced the verify pass): quarantine rather than retry.
      quarantine_and_rearm(&rc);
    }
  }

  // Single-tier rung: the retained Step-I snapshot.
  if (rc.fallback == FallbackLevel::kNone)
    rc.fallback = FallbackLevel::kSingleTier;
  if (store_->get_single_tier(single_tier_id_) != nullptr) {
    VanillaPolicy vanilla(*store_, single_tier_id_);
    if (restore_execute(vm, vanilla.plan_restore(), inv, &rec.result, &rc) ==
        RetryStatus::kOk) {
      record_oracle(vm, store_->fetch_single_tier(single_tier_id_), &rc);
      return rec;
    }
  }

  // Terminal rung: cold boot.
  cold_boot_rung(vm, inv, rec);
  return rec;
}

}  // namespace toss
