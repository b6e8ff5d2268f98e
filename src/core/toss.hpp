// TOSS orchestrator: the per-function state machine of Figure 4.
//
//   Step I    Initial execution in a DRAM-only VM -> single-tier snapshot
//   Step II   Memory profiling with DAMON over subsequent invocations,
//             merged into the unified access pattern, until stable for N
//   Step III  Profiling analysis: zero pages -> slow; equal-access bin
//             packing; bin profiling on the largest profiled input;
//             minimum-cost (optionally slowdown-bounded) placement
//   Step IV   Snapshot tiering: one file per ladder rank + memory layout file
//   (Step V)  Re-generation: Eq 2-4 trigger re-entry into profiling
//
// TossFunction drives all of it for one serverless function; every
// invocation goes through handle() regardless of the current phase.
#pragma once

#include <memory>
#include <optional>

#include "baseline/vanilla.hpp"
#include "core/optimizer.hpp"
#include "core/reprofile.hpp"
#include "core/retier_bound.hpp"
#include "core/tierer.hpp"
#include "core/unified_pattern.hpp"
#include "damon/monitor.hpp"
#include "util/fault.hpp"
#include "workloads/function_model.hpp"

namespace toss {

struct TossOptions {
  /// N: invocations the unified pattern must stay stable to end profiling.
  /// The paper's prototype uses 100; experiments shrink this to keep
  /// simulated request counts manageable.
  u64 stable_invocations = 100;
  /// Safety valve: force analysis after this many profiled invocations.
  u64 max_profiling_invocations = 1000;
  int bin_count = 10;
  double unified_change_epsilon = 0.02;
  std::optional<double> slowdown_threshold;
  /// QoS SLO slowdown target (DESIGN.md §14): when set and
  /// slowdown_threshold is not, Step III derives the threshold by walking
  /// the Eq-1 cost curve to the cheapest configuration meeting the SLO
  /// (TieringOptions::slo_slowdown). Set by FunctionRegistration::qos()/
  /// slo(); an explicit slowdown_threshold always wins.
  std::optional<double> slo_slowdown;
  double reprofile_budget = 1e-4;
  DamonConfig damon;
  /// The evaluation methodology drops the host page cache between
  /// invocations; disable for keep-warm studies.
  bool drop_caches_between_invocations = true;
  /// Recovery ladder: bounded retry (with simulated, jittered backoff) for
  /// transient faults on restore, execution and snapshot persistence. With
  /// no faults injected the policy is never consulted.
  RetryPolicy retry;
};

enum class TossPhase : u8 {
  kInitial = 0,    ///< no snapshot yet
  kProfiling = 1,  ///< single-tier snapshot + DAMON riding along
  kTiered = 2,     ///< tiered snapshot in production
};

inline const char* phase_name(TossPhase p) {
  switch (p) {
    case TossPhase::kInitial: return "initial";
    case TossPhase::kProfiling: return "profiling";
    default: return "tiered";
  }
}

/// What one handled invocation did and cost.
struct TossInvocationRecord {
  TossPhase phase = TossPhase::kInitial;  ///< phase the invocation ran in
  InvocationResult result;
  bool snapshot_created = false;  ///< Step I completed on this invocation
  bool tiered_created = false;    ///< Step III+IV completed after it
  bool reprofile_triggered = false;
  /// Recovery ledger: faults hit, retries spent, fallback taken, and the
  /// page-version oracle hashes. All-default when nothing went wrong.
  RecoveryInfo recovery;
};

class TossFunction {
 public:
  TossFunction(const SystemConfig& cfg, SnapshotStore& store,
               const FunctionModel& model, TossOptions options = {},
               u64 seed = 42);

  /// Handle one invocation of `input` (0-based); `invocation_seed`
  /// distinguishes repeats. Drives the state machine.
  TossInvocationRecord handle(int input, u64 invocation_seed);

  TossPhase phase() const { return phase_; }
  const FunctionModel& model() const { return *model_; }
  const TossOptions& options() const { return options_; }

  /// Valid once phase() == kTiered.
  const TieringDecision* decision() const {
    return decision_ ? &*decision_ : nullptr;
  }
  const TieredSnapshot* tiered_snapshot() const;
  u64 profiled_invocations() const { return damon_invocations_; }
  const UnifiedPattern* unified() const {
    return unified_ ? &*unified_ : nullptr;
  }

  /// Circuit breaker hook: while suspended, tiered restores and Step III
  /// re-analysis are skipped in favour of the retained single-tier snapshot
  /// (FallbackLevel::kSingleTier), letting a flapping lane stop hammering a
  /// failing artifact without losing availability.
  void set_recovery_suspended(bool suspended) { suspended_ = suspended; }

  /// True between a quarantine and the Step V rebuild that replaces the
  /// quarantined tiered snapshot.
  bool regeneration_pending() const { return regeneration_pending_; }

  /// Arbiter hook (DESIGN.md §9): rebuild the tiered artifact by re-picking
  /// a placement from the last Step III's bin profile under a bound, then
  /// re-running Step IV. A trivial bound restores the optimizer's
  /// unconstrained minimum-cost placement; a descent prefix forces the
  /// placement down the Step-III sweep to a demotion_curve point
  /// (demotion, or a promotion that replays a shallower point). The pick
  /// equals what a fresh Step III would choose: the profile depends only on
  /// the unified pattern and the representative, and both change only
  /// while profiling, which always ends in a fresh Step III. Only
  /// meaningful in kTiered — returns false, with all state unchanged,
  /// otherwise or when persisting the re-tiered artifact exhausts its
  /// torn-write retry budget. While a non-trivial bound is active, the
  /// Eq 2-4 re-profiling trigger is muted: the extra slowdown is
  /// intentional, not access-pattern drift.
  bool retier(RetierBound bound);
  /// The bound the last successful retier() applied.
  const RetierBound& retier_bound() const { return bound_; }

  /// Fast/slow-tier bytes an invocation of this function pins while
  /// running. Tiered phase: the tiered artifact's per-tier file sizes
  /// ("slow" sums every rank below 0); otherwise the whole guest image sits
  /// in DRAM (single-tier restores and cold boots are fast-tier only).
  u64 fast_resident_bytes() const;
  u64 slow_resident_bytes() const;
  /// Bytes pinned in one specific ladder rank (metrics rollups).
  u64 tier_resident_bytes(size_t rank) const;

  /// Largest-input invocation observed while profiling (Section V-C's
  /// representative); valid during/after profiling.
  std::optional<std::pair<int, u64>> representative() const {
    return largest_ ? std::optional(std::pair(largest_->input, largest_->seed))
                    : std::nullopt;
  }

 private:
  TossInvocationRecord handle_initial(const Invocation& inv);
  TossInvocationRecord handle_profiling(const Invocation& inv);
  TossInvocationRecord handle_tiered(const Invocation& inv);
  /// Step III on the current unified pattern under bound_, then Step IV.
  /// Sets decision_ and bins_ together. Requires unified_ && largest_.
  bool run_analysis(RecoveryInfo* recovery);
  /// Step III's options under an arbiter bound.
  TieringOptions tiering_options(const RetierBound& bound) const;
  /// Re-arm the Eq 2-4 regeneration trigger against decision_.
  void arm_reprofiler();

  /// One ladder rung under options_.retry: restore (or cold-boot) and
  /// execute; `out` is written only by the attempt that succeeds.
  /// kBroken = the restore's backing artifact is missing or corrupted.
  RetryStatus restore_execute(MicroVm& vm, const RestorePlan& plan,
                              const Invocation& inv, InvocationResult* out,
                              RecoveryInfo* recovery);
  RetryStatus boot_execute(MicroVm& vm, const Invocation& inv,
                           InvocationResult* out, RecoveryInfo* recovery);
  void cold_boot_rung(MicroVm& vm, const Invocation& inv,
                      TossInvocationRecord& rec);
  void quarantine_and_rearm(RecoveryInfo* recovery);
  /// The page-version oracle against the authoritative snapshot: expected
  /// is its content hash, observed is compared before it is hashed.
  void record_oracle(const MicroVm& vm, const SingleTierSnapshot& authority,
                     RecoveryInfo* recovery);
  /// Point tiered_id_ at a freshly persisted artifact, erasing the one it
  /// supersedes.
  void replace_tiered(u64 id);

  const SystemConfig* cfg_;
  SnapshotStore* store_;
  const FunctionModel* model_;
  TossOptions options_;
  Rng rng_;
  /// Jitter stream for retry backoff. Deliberately separate from rng_: the
  /// fault-free path must never advance rng_ differently than the pre-fault
  /// code did, or DAMON sampling (and thus every downstream decision) would
  /// change even with no plan armed.
  Rng recovery_rng_;

  TossPhase phase_ = TossPhase::kInitial;
  u64 single_tier_id_ = 0;
  u64 tiered_id_ = 0;
  RetierBound bound_;  ///< active retier() bound (trivial = unconstrained)
  bool suspended_ = false;
  bool regeneration_pending_ = false;
  std::optional<UnifiedPattern> unified_;
  std::optional<TieringDecision> decision_;
  /// The bins decision_->profile swept; retier() re-picks from both.
  std::vector<Bin> bins_;
  DamonMonitor damon_;
  ReprofilePolicy reprofiler_;
  u64 damon_invocations_ = 0;

  struct Largest {
    int input = 0;
    u64 seed = 0;
    Nanos exec_ns = 0;
  };
  std::optional<Largest> largest_;
};

}  // namespace toss
