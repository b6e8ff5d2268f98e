// ServerlessPlatform: the end-to-end single-host facade. Register functions
// with a snapshot policy (vanilla / REAP / FaaSnap / TOSS) and fire requests
// at them; the platform manages snapshots, working sets, TOSS lifecycles and
// per-function statistics. PlatformEngine (platform/engine.hpp) composes
// many of these to drive a fleet concurrently.
//
// Public-surface rules (see DESIGN.md "Public API"):
//   - registration goes through the FunctionRegistration builder, which
//     validates options up front and returns Result<void>;
//   - fallible calls return Result<T>; reference accessors throw
//     toss::Error (never raw std::out_of_range);
//   - the pre-builder register_function(spec, kind, options) shim is gone,
//     and so are the Tier::kFast/kSlow index aliases (mem/tier.hpp): the
//     platform carries no deprecation surface at all.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/faasnap.hpp"
#include "baseline/reap.hpp"
#include "baseline/vanilla.hpp"
#include "core/toss.hpp"
#include "platform/errors.hpp"
#include "platform/invoker.hpp"
#include "platform/metrics.hpp"
#include "platform/pricing.hpp"
#include "platform/qos.hpp"
#include "platform/recovery.hpp"
#include "platform/request_gen.hpp"
#include "util/fault.hpp"

namespace toss {

enum class PolicyKind : u8 { kVanilla, kReap, kFaasnap, kToss };

const char* policy_name(PolicyKind kind);

struct InvocationOutcome {
  InvocationResult result;
  TossPhase toss_phase = TossPhase::kInitial;  ///< meaningful for kToss
  /// First-ever invocation (no snapshot yet) — or one that fell all the
  /// way down the recovery ladder to a cold start.
  bool cold_boot = false;
  double charge = 0;        ///< $ for this invocation
  /// Recovery ledger for this invocation; all-default when nothing failed.
  RecoveryInfo recovery;

  bool operator==(const InvocationOutcome&) const = default;
};

/// What a function's invocations did, recorded once per invocation by
/// ServerlessPlatform::invoke. Admission decisions (offered, admitted,
/// shed) are the engine's OverloadStats, not counted here.
struct FunctionStats {
  u64 invocations = 0;
  u64 cold_boots = 0;
  /// Indexed by TossPhase (kInitial/kProfiling/kTiered). Baseline policies
  /// count everything as kInitial.
  std::array<u64, 3> phase_invocations{};
  LatencyHistogram total_ns;
  LatencyHistogram setup_ns;
  LatencyHistogram exec_ns;
  double total_charge = 0;
  // Recovery aggregates (all zero unless faults were injected).
  u64 recovered_faults = 0;   ///< injected faults invocations tripped over
  u64 recovery_retries = 0;   ///< extra attempts spent across invocations
  u64 fallbacks_single_tier = 0;  ///< served from the Step-I snapshot
  u64 fallbacks_cold_boot = 0;    ///< fell all the way to a cold boot
  u64 quarantines = 0;        ///< tiered artifacts quarantined
  u64 regenerations = 0;      ///< quarantined artifacts rebuilt (Step V)
  u64 breaker_suspended = 0;  ///< served with the circuit breaker open
  u64 incomplete = 0;         ///< invocations that exhausted every rung

  /// Invocations served below the intended rung, at any level.
  u64 fallbacks() const { return fallbacks_single_tier + fallbacks_cold_boot; }

  bool operator==(const FunctionStats&) const = default;
};

/// Builder for one function registration. Chain setters, then hand it to
/// ServerlessPlatform::register_function / PlatformEngine::add, which run
/// validate() and reject nonsense (bin_count < 1, stability window larger
/// than the profiling budget, ...) instead of silently accepting it.
class FunctionRegistration {
 public:
  explicit FunctionRegistration(FunctionSpec spec) : spec_(std::move(spec)) {}

  FunctionRegistration& policy(PolicyKind kind) {
    kind_ = kind;
    return *this;
  }
  /// TOSS knobs; only meaningful under PolicyKind::kToss.
  FunctionRegistration& toss(TossOptions options) {
    toss_options_ = std::move(options);
    return *this;
  }
  /// Seed for the function's deterministic RNG streams (DAMON noise, ...).
  FunctionRegistration& seed(u64 s) {
    seed_ = s;
    return *this;
  }
  /// Recovery ladder retry policy (applies to every policy kind; for kToss
  /// this sets TossOptions::retry).
  FunctionRegistration& retry(RetryPolicy r) {
    toss_options_.retry = r;
    return *this;
  }
  /// Per-function circuit breaker for the tiered path (kToss only).
  FunctionRegistration& breaker(CircuitBreakerOptions options) {
    breaker_ = options;
    return *this;
  }
  /// QoS class (DESIGN.md §14). Gold lanes are degraded last and readmitted
  /// first; bronze absorb demotion and shedding. Setting a class also fills
  /// the SLO slowdown target with the class default unless slo() set one.
  /// For kToss lanes without an explicit slowdown_threshold, Step III
  /// derives the threshold from the SLO (TossOptions::slo_slowdown).
  FunctionRegistration& qos(QosClass cls) {
    qos_class_ = cls;
    if (!toss_options_.slo_slowdown && cls != QosClass::kNone)
      toss_options_.slo_slowdown = qos_default_slo_slowdown(cls);
    return *this;
  }
  /// Explicit SLO slowdown target (e.g. 0.10 for "within 10% of DRAM").
  /// Overrides the class default in either call order.
  FunctionRegistration& slo(double slowdown) {
    toss_options_.slo_slowdown = slowdown;
    return *this;
  }

  /// All registration-time invariants in one place.
  Result<void> validate() const;

  const FunctionSpec& spec() const { return spec_; }
  PolicyKind policy() const { return kind_; }
  const TossOptions& toss_options() const { return toss_options_; }
  u64 seed() const { return seed_; }
  const CircuitBreakerOptions& breaker_options() const { return breaker_; }
  /// Resolved service class + effective SLO slowdown target.
  QosSpec qos_spec() const {
    return QosSpec{qos_class_, toss_options_.slo_slowdown.value_or(0)};
  }

 private:
  FunctionSpec spec_;
  PolicyKind kind_ = PolicyKind::kToss;
  TossOptions toss_options_;
  u64 seed_ = 42;
  CircuitBreakerOptions breaker_;
  QosClass qos_class_ = QosClass::kNone;
};

class ServerlessPlatform {
 public:
  /// `faults` arms deterministic fault injection against this host's
  /// snapshot store. Only an armed plan attaches an injector; an unarmed
  /// one (the default) leaves store().faults() null.
  explicit ServerlessPlatform(SystemConfig cfg = SystemConfig::paper_default(),
                              PricingPlan pricing = {}, FaultPlan faults = {});

  /// Validate and register. Fails with kInvalidOptions or
  /// kDuplicateFunction; on failure the platform is unchanged.
  Result<void> register_function(const FunctionRegistration& registration);

  /// Invoke by name. Unknown names yield ErrorCode::kUnknownFunction;
  /// inputs outside [0, kNumInputs) yield kInvalidRequest.
  Result<InvocationOutcome> invoke(const std::string& name, int input,
                                   u64 seed);

  /// Drive a whole request stream; returns the outcomes, or the first
  /// error (partial work is kept in stats()).
  Result<std::vector<InvocationOutcome>> run(const std::string& name,
                                             const std::vector<Request>& requests);

  /// Throws toss::Error(kUnknownFunction) for unregistered names.
  const FunctionStats& stats(const std::string& name) const;
  /// nullptr for unknown names or non-TOSS functions.
  const TossFunction* toss_state(const std::string& name) const;
  /// Mutable variant, for the overload arbiter's retier() hook.
  TossFunction* toss_state_mutable(const std::string& name);

  /// Per-tier bytes one invocation of `name` pins while running (DESIGN.md
  /// §9). TOSS functions delegate to TossFunction's phase-aware accounting;
  /// baselines always restore the whole image into DRAM. Unknown names
  /// report zeros. `per_tier[r]` is the bytes pinned in ladder rank r
  /// (sized to the host's tier_count); `fast`/`slow` are the rank-0 /
  /// everything-below-rank-0 rollups.
  struct ResidentBytes {
    u64 fast = 0;
    u64 slow = 0;
    std::vector<u64> per_tier;
  };
  ResidentBytes resident_bytes(const std::string& name) const;

  /// Watchdog hook: force the function's circuit breaker open. Returns
  /// false for unknown names.
  bool trip_breaker(const std::string& name);
  /// nullptr for unknown names.
  const CircuitBreaker* breaker(const std::string& name) const;

  const SystemConfig& config() const { return cfg_; }
  SnapshotStore& store() { return store_; }
  const PricingPlan& pricing() const { return pricing_; }

 private:
  struct FunctionRuntime {
    FunctionModel model;
    PolicyKind kind;
    TossOptions toss_options;
    std::unique_ptr<TossFunction> toss;   // kToss only
    u64 snapshot_id = 0;                  // baselines
    std::optional<WorkingSet> ws;         // kReap / kFaasnap
    FunctionStats stats;
    CircuitBreaker breaker;
    /// Backoff jitter for the baseline recovery path; separate stream so
    /// the fault-free path stays bit-identical.
    Rng recovery_rng{0};
  };

  InvocationOutcome invoke_baseline(FunctionRuntime& rt, int input, u64 seed);
  double charge_for(const FunctionRuntime& rt,
                    const InvocationResult& result) const;

  SystemConfig cfg_;
  PricingPlan pricing_;
  SnapshotStore store_;
  Invoker invoker_;
  /// Owns the injector the store points at; null when no plan is armed.
  std::unique_ptr<FaultInjector> injector_;
  std::map<std::string, FunctionRuntime> functions_;
};

}  // namespace toss
