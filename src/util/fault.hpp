// Deterministic fault injection for the snapshot and cluster failure
// domains, plus the retry/recovery vocabulary the self-healing ladder
// shares across layers.
//
// Every invocation depends on on-disk artifacts (tier files, the memory
// layout file) and on restores succeeding; production snapshot stores treat
// torn writes, bitrot and device stalls as normal events. The FaultInjector
// makes those events *reproducible*: each injection site owns a seeded Rng
// stream (util/rng, so the toss_lint nondeterminism rule holds) and an arm
// counter, and a fault fires either by per-arm probability or by an
// explicit schedule of arm indices. Sites draw from independent streams and
// all state is lane-local, so the same seed produces the same fault
// sequence for any thread count.
//
// The probes are always compiled; a FaultPlan alone decides whether
// anything fires. A run with no armed plan has no injector on its
// snapshot stores, and every snapshot-path probe sits behind a null check
// on that injector, so it runs no probe there. The cluster skips its
// failure-domain barrier unless its plan is armed; a migration still arms
// kMigrationAbort, which on an unarmed site only counts the arm.
//
// Recovery vocabulary (used whether or not a plan is armed):
//   FallbackLevel  how far down the degradation ladder an invocation fell
//   RecoveryInfo   per-invocation ledger of faults seen, retries spent,
//                  fallback taken and quarantine/regeneration events
//   RetryPolicy    bounded attempts + exponential backoff with
//                  deterministic jitter, in *simulated* time; run() is the
//                  one retry loop every ladder rung goes through
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace toss {

/// Injection sites: one per failure domain of the snapshot path, plus the
/// cluster-level domains (whole-host death, host slowdown, cross-host
/// transfer). Cluster sites arm from per-host derived seeds inside
/// ClusterEngine, so host failures are as reproducible as page bitrot.
enum class FaultSite : u8 {
  kPutSingleTier = 0,  ///< torn write persisting the single-tier snapshot
  kPutTiered,          ///< torn write persisting the tiered artifact
  kTierBitrot,         ///< at-rest corruption of a fast tier-file page
  kTierTruncate,       ///< at-rest truncation of the fast tier file
  kRestoreMapping,     ///< transient mmap failure at restore
  kSlowTierStall,      ///< latency spike on slow-tier mappings at restore
  kExecCrash,          ///< guest crash mid-invocation, before any snapshot
  kHostCrash,          ///< whole-host death at a cluster epoch boundary
  kHostBrownout,       ///< host straggle: epoch wall-clock inflated delay_ns
  kMigrationAbort,     ///< cross-host snapshot transfer aborts mid-copy
};
/// Derived from the last enumerator, so adding a site cannot leave the
/// count (and every array sized by it) stale.
inline constexpr size_t kFaultSiteCount =
    static_cast<size_t>(FaultSite::kMigrationAbort) + 1;

/// Wire names, indexed by FaultSite. constexpr so tests can static_assert
/// the table, the enum and kFaultSiteCount stay in sync.
inline constexpr std::array<const char*, kFaultSiteCount> kFaultSiteNames = {
    "put_single_tier", "put_tiered",      "tier_bitrot",  "tier_truncate",
    "restore_mapping", "slow_tier_stall", "exec_crash",   "host_crash",
    "host_brownout",   "migration_abort",
};

constexpr const char* fault_site_name(FaultSite site) {
  return kFaultSiteNames[static_cast<size_t>(site)];
}

/// Inverse of fault_site_name; empty when the name is unknown. constexpr,
/// so the round-trip (site -> name -> site) is checkable at compile time.
constexpr std::optional<FaultSite> fault_site_from_name(
    std::string_view name) {
  for (size_t i = 0; i < kFaultSiteCount; ++i)
    if (name == std::string_view(kFaultSiteNames[i]))
      return static_cast<FaultSite>(i);
  return std::nullopt;
}

/// When a site fires. `schedule` lists explicit 0-based arm indices (the
/// n-th time the site is reached); `probability` adds an independent
/// per-arm chance on top. Both empty/zero = the site never fires.
struct FaultConfig {
  double probability = 0.0;
  std::vector<u64> schedule{};
  u64 max_fires = ~u64{0};
  /// Magnitude for kSlowTierStall (added to restore setup time).
  Nanos delay_ns = 0;

  bool armed() const { return probability > 0.0 || !schedule.empty(); }
};

/// A seedable description of which sites fault and how — the value handed
/// to ServerlessPlatform / EngineOptions. Plans are cheap to copy; the
/// engine derives an independent per-lane injector from (seed, lane name).
struct FaultPlan {
  u64 seed = 0;
  std::array<FaultConfig, kFaultSiteCount> sites;

  FaultPlan& set(FaultSite site, FaultConfig config) {
    sites[static_cast<size_t>(site)] = std::move(config);
    return *this;
  }
  const FaultConfig& at(FaultSite site) const {
    return sites[static_cast<size_t>(site)];
  }
  bool armed() const {
    for (const FaultConfig& c : sites)
      if (c.armed()) return true;
    return false;
  }
};

/// Per-lane fault state: arm counters, fire counters and one forked Rng
/// stream per site. Deterministic for a fixed (plan.seed, salt) regardless
/// of what other lanes or sites do.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, u64 salt);

  /// Called once per arm point. Advances the site's arm counter and
  /// decides — by schedule, then by probability — whether this arm faults.
  bool should_fire(FaultSite site);

  /// Deterministic draw from the site's stream in [0, bound); used to pick
  /// e.g. which file page bitrot flips.
  u64 draw(FaultSite site, u64 bound);

  Nanos stall_ns(FaultSite site) const;

  u64 arms(FaultSite site) const;
  u64 fires(FaultSite site) const;
  u64 total_fires() const;

 private:
  struct SiteState {
    FaultConfig config;
    Rng rng{0};
    u64 arms = 0;
    u64 fires = 0;
  };
  std::array<SiteState, kFaultSiteCount> sites_;
};

/// How far down the degradation ladder an invocation fell.
enum class FallbackLevel : u8 {
  kNone = 0,        ///< intended restore path succeeded
  kSingleTier = 1,  ///< tiered artifact unusable; retained Step-I snapshot
  kColdBoot = 2,    ///< no usable snapshot at all; booted from scratch
};

/// Per-invocation recovery ledger, carried on TossInvocationRecord /
/// InvocationOutcome and aggregated into the metrics counters.
struct RecoveryInfo {
  u32 faults_seen = 0;  ///< injected faults this invocation tripped over
  u32 retries = 0;      ///< extra attempts spent (any ladder rung)
  FallbackLevel fallback = FallbackLevel::kNone;
  bool quarantined = false;         ///< tiered artifact quarantined now
  bool regenerated = false;         ///< rebuilt a previously quarantined one
  bool breaker_suspended = false;   ///< circuit breaker forced degraded mode
  /// False only when every ladder rung was exhausted (e.g. the guest
  /// crashed on all retry attempts) and no execution finished.
  bool completed = true;
  Nanos overhead_ns = 0;            ///< simulated backoff + wasted attempts
  u64 memory_hash = 0;              ///< page-version oracle: observed
  u64 expected_hash = 0;            ///< page-version oracle: authoritative

  bool memory_ok() const { return memory_hash == expected_hash; }
  bool engaged() const {
    return retries > 0 || fallback != FallbackLevel::kNone || quarantined;
  }

  bool operator==(const RecoveryInfo&) const = default;
};

/// How one RetryPolicy::run ended.
enum class RetryStatus : u8 {
  kOk = 0,     ///< an attempt returned normally
  kExhausted,  ///< every attempt threw a transient Error
  kBroken,     ///< an attempt threw a non-transient Error; no retry
};

/// Bounded retry with exponential backoff and deterministic jitter. Backoff
/// is *simulated* time: the ladder adds it to the invocation's setup cost,
/// so degradation under faults is measurable in the latency metrics rather
/// than burned as real wall-clock sleeps.
struct RetryPolicy {
  int max_attempts = 3;  ///< total attempts per fallible operation (>= 1)
  Nanos base_backoff_ns = ms(1);
  double multiplier = 2.0;
  double jitter = 0.25;  ///< +/- fraction of the backoff, drawn from `rng`

  /// Backoff charged before retry number `retry_index` (0-based, i.e. after
  /// the (retry_index+1)-th failed attempt).
  Nanos backoff_ns(int retry_index, Rng& rng) const;

  /// The one bounded-retry loop: call `attempt` until it returns without
  /// throwing toss::Error, at most max_attempts times (below 1 counts as
  /// 1). Every Error thrown counts one fault seen; a non-transient one
  /// ends the loop at once. Each retry adds one retry and its jittered
  /// backoff to `recovery`. A null `recovery` counts nothing and draws no
  /// jitter, so barrier-time work leaves every lane's streams untouched.
  template <typename Attempt>
  RetryStatus run(Rng& rng, RecoveryInfo* recovery, Attempt&& attempt) const {
    const int attempts = std::max(1, max_attempts);
    for (int i = 0; i < attempts; ++i) {
      if (i > 0 && recovery != nullptr) {
        ++recovery->retries;
        recovery->overhead_ns += backoff_ns(i - 1, rng);
      }
      try {
        attempt();
        return RetryStatus::kOk;
      } catch (const Error& e) {
        if (recovery != nullptr) ++recovery->faults_seen;
        if (!is_transient(e.code())) return RetryStatus::kBroken;
      }
    }
    return RetryStatus::kExhausted;
  }
};

}  // namespace toss
