// ClusterEngine: N simulated hosts behind one placement layer (DESIGN.md
// §10). Each Host (platform/host.hpp) is a full single-host engine — lane
// fleet, epoch-barrier scheduler, bounded queues, fast-tier arbiter — and
// the cluster adds the two decisions a fleet of hosts needs:
//
//   Placement. add() estimates the function's fast-tier demand with an
//   offline Step-III/IV analysis (predicted_tier_demand) and bin-packs it
//   greedily: worst-fit by predicted headroom against each host's
//   fast-tier budget, ties toward the lowest host index. The estimate is
//   not what the lane converges to: it max-merges unscaled exact access
//   counts of every input at the registration seed and profiles against
//   input 0, while the lane merges DAMON records (scaled by count_scale)
//   of its own requests and profiles against its largest invocation. The
//   two can differ by an order of magnitude either way (DESIGN.md §10).
//
//   Migration. The estimate can be wrong per function and in aggregate
//   (skewed load, keep-alive pressure). When a host's arbiter pins at the
//   close-admission rung for K consecutive epochs, the cluster moves its
//   largest tiered function to the host with the most predicted headroom.
//   Lanes are fully isolated, so the move is the whole HostLane object; the
//   simulated cost of copying the snapshot bytes out of the source
//   SnapshotStore is charged to the lane's simulated clock before it
//   re-joins on the destination. Every move lands in a MigrationEvent
//   ledger with the same determinism contract as ShedEvents.
//
//   Failure domains (DESIGN.md §13). The host itself can die (kHostCrash),
//   straggle (kHostBrownout) or abort a cross-host transfer mid-copy
//   (kMigrationAbort); each host derives an independent FaultInjector from
//   (cluster_fault_plan.seed, host name). Migration is transactional — the
//   source lane stays authoritative until the transfer commits, aborted
//   attempts retry under RetryPolicy and then abandon with a typed
//   kAborted ledger entry. A crash re-places the dead host's lanes by the
//   same worst-fit predictor onto healthy survivors (queued requests
//   re-admitted under the destination's bounds or shed as kHostLost), and
//   a per-host CircuitBreaker quarantines browned-out hosts from placement
//   and migration while their fast-tier budget is withdrawn.
//
// Determinism: each epoch of run() is the single-host drain's loop over
// every live host (Host::step_epoch in platform/host.hpp) — plan every
// host in host index order, run all their lanes in one executor round,
// finish every host in host index order — and migration, failover and
// health governance are decided between epochs at the serial barrier from
// simulated state only, so the full cluster ledger (shed + arbiter +
// migration + failover + health) is bit-identical for any worker thread
// count at a fixed seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "platform/host.hpp"
#include "platform/recovery.hpp"

namespace toss {

struct ClusterOptions {
  /// Simulated host count (>= 1).
  size_t hosts = 2;
  /// Per-host engine options. The cluster forces arbiter.enabled — the
  /// placement and migration layers are meaningless without per-host
  /// budget accounting.
  EngineOptions host_options;
  /// K: consecutive epochs a host's arbiter must hold admission closed
  /// before the cluster migrates a function away (hysteresis).
  int migrate_after_pinned_epochs = 4;
  /// Cluster-level fault plan (kHostCrash / kHostBrownout /
  /// kMigrationAbort). Each host derives an independent injector seeded by
  /// (seed, host name) — distinct from host_options.fault_plan, which
  /// drives the per-lane snapshot sites. Unless it is armed, the cluster
  /// skips its failure-domain barrier.
  FaultPlan cluster_fault_plan;
  /// Per-host health breaker: consecutive browned-out epochs open it
  /// (quarantine), a clean cooldown closes it (readmission).
  CircuitBreakerOptions health_breaker;
};

/// How a migration transaction ended.
enum class MigrationOutcome : u8 {
  kCommitted = 0,  ///< destination restore verified; source lane moved
  kAborted,        ///< every transfer attempt aborted; source kept the lane
};

const char* migration_outcome_name(MigrationOutcome outcome);

/// One cross-host move attempt; part of the cluster's determinism contract.
struct MigrationEvent {
  u64 epoch = 0;  ///< cluster epoch the decision was made at
  std::string function;
  std::string from_host;
  std::string to_host;
  u64 moved_bytes = 0;    ///< snapshot bytes copied (fast + slow tier)
  Nanos transfer_ns = 0;  ///< simulated copy cost charged to the lane
  MigrationOutcome outcome = MigrationOutcome::kCommitted;
  u32 attempts = 1;            ///< transfer attempts (1 = clean first try)
  Nanos retry_backoff_ns = 0;  ///< simulated backoff across aborted tries

  bool operator==(const MigrationEvent&) const = default;
};

/// One lane re-placed (or abandoned) at a host-crash barrier.
struct FailoverEvent {
  u64 epoch = 0;
  std::string function;
  std::string from_host;
  /// Destination host; empty when no survivor could adopt the lane (its
  /// pending requests were shed as kHostLost on the dead host).
  std::string to_host;
  u64 moved_bytes = 0;   ///< surviving snapshot bytes restored on the dest
  Nanos restore_ns = 0;  ///< simulated tiered-restore cost charged to lane
  u64 requeued = 0;      ///< queued requests re-admitted on the destination
  u64 shed = 0;          ///< pending requests shed as kHostLost

  bool operator==(const FailoverEvent&) const = default;
};

/// Host health governance transitions (per-host CircuitBreaker).
enum class HostHealthAction : u8 {
  kBrownout = 0,  ///< a brownout epoch inflated the host's lane clocks
  kQuarantine,    ///< breaker opened: withdrawn from placement + budget
  kProbe,         ///< breaker half-open: next clean epoch readmits
  kReadmit,       ///< breaker closed again: budget + eligibility restored
  kCrash,         ///< the host died at this epoch's barrier
};

const char* host_health_action_name(HostHealthAction action);

struct HostHealthEvent {
  u64 epoch = 0;
  std::string host;
  HostHealthAction action = HostHealthAction::kBrownout;

  bool operator==(const HostHealthEvent&) const = default;
};

struct ClusterHostReport {
  std::string host;
  EngineReport report;

  bool operator==(const ClusterHostReport&) const = default;
};

struct ClusterReport {
  std::vector<ClusterHostReport> hosts;  ///< host index order
  std::vector<MigrationEvent> migrations;
  std::vector<FailoverEvent> failovers;
  std::vector<HostHealthEvent> health_events;
  u64 hosts_lost = 0;
  u64 epochs = 0;

  /// The determinism contract: equal for any thread count at a fixed seed
  /// and fault plan.
  bool operator==(const ClusterReport&) const = default;

  u64 total_invocations() const;
  u64 total_shed() const;
  /// The function's report on whichever host currently owns it.
  const FunctionReport* find(const std::string& name) const;
  /// Schema-7 JSON: {"schema":7,"cluster":{...},"hosts":[...]} — each
  /// hosts[] entry is that host's EngineReport::to_json(). The cluster
  /// block holds the totals, the migration/failover/health ledgers and the
  /// per-class SLO rollup summed over hosts. Every key is always present.
  std::string to_json() const;
};

/// Greedy worst-fit bin packing step: pick the host for a function with
/// `demand_bytes` of predicted fast-tier demand given each host's already
/// placed demand and the (uniform) per-host budget. Prefers the fitting
/// host with the most headroom; when nothing fits, the least overloaded
/// host. Ties break toward the lowest index. Exposed for unit tests.
size_t place_on_host(u64 demand_bytes, const std::vector<u64>& predicted_load,
                     u64 fast_budget_bytes);

/// Predicted bytes per ladder rank for one registration (index 0 =
/// fastest, sized cfg.tier_count()): baselines pin their whole guest image
/// in DRAM (rank 0); TOSS functions get the Step-IV placement's per-rank
/// share of an offline Step-III analysis (unscaled exact counts of every
/// input at the registration seed, max-merged, profiled against input 0).
/// An estimate, not the lane's converged footprint (see the file comment).
std::vector<u64> predicted_tier_demand(const SystemConfig& cfg,
                                       const FunctionRegistration& registration);

/// Rank-0 rollup of predicted_tier_demand — the binding constraint for
/// placement (only the fast tier's capacity is arbiter-defended; deeper
/// rungs are modelled as abundant).
u64 predicted_fast_demand(const SystemConfig& cfg,
                          const FunctionRegistration& registration);

class ClusterEngine {
 public:
  static constexpr size_t npos = Host::npos;

  explicit ClusterEngine(ClusterOptions options = {},
                         SystemConfig cfg = SystemConfig::paper_default(),
                         PricingPlan pricing = {});
  ~ClusterEngine();

  ClusterEngine(const ClusterEngine&) = delete;
  ClusterEngine& operator=(const ClusterEngine&) = delete;

  /// Register a function cluster-wide: validate it, estimate its
  /// fast-tier demand, bin-pack it onto a host, and bind its request
  /// stream there. On failure nothing is placed.
  Result<void> add(const FunctionRegistration& registration,
                   std::vector<Request> requests);

  /// Append a batch to the function's lane on whichever host owns it.
  Result<void> enqueue(const std::string& function,
                       std::vector<Request> requests);

  /// Serve everything pending on every host, migrating under pressure.
  /// Reusable: enqueue more work and run again; reports are cumulative.
  /// threads <= 0 = hardware concurrency (the pool is shared across
  /// hosts; determinism does not depend on it).
  Result<ClusterReport> run(int threads = 0);

  size_t host_count() const { return hosts_.size(); }
  const Host& host_at(size_t index) const { return *hosts_[index]; }
  /// Host index currently owning `function`; npos when unknown.
  size_t host_of(const std::string& function) const;
  size_t function_count() const;
  /// Predicted fast-tier demand currently placed on each host.
  const std::vector<u64>& predicted_load() const { return predicted_load_; }
  u64 host_fast_budget_bytes(size_t index) const {
    return hosts_[index]->fast_budget_bytes();
  }
  const std::vector<MigrationEvent>& migrations() const { return migrations_; }
  const std::vector<FailoverEvent>& failovers() const { return failovers_; }
  const std::vector<HostHealthEvent>& health_events() const {
    return health_events_;
  }
  /// True once kHostCrash fired for the host (its lanes were failed over
  /// or abandoned; it no longer steps, places or adopts).
  bool host_dead(size_t index) const { return health_[index].dead; }
  /// True while the host's health breaker is not closed (withdrawn from
  /// placement and migration targets, fast-tier budget treated as zero).
  bool host_quarantined(size_t index) const;
  u64 hosts_lost() const { return hosts_lost_; }
  u64 epochs() const { return epochs_; }
  const ClusterOptions& options() const { return options_; }

 private:
  /// Per-host failure-domain state. The injector derives from
  /// (cluster_fault_plan.seed, host name), so each host's crash/brownout/
  /// abort stream is independent of every other host and of the per-lane
  /// snapshot sites.
  struct HostHealth {
    std::unique_ptr<FaultInjector> injector;
    CircuitBreaker breaker;
    bool dead = false;
    u64 brownouts = 0;
    u64 quarantines = 0;
    u64 readmissions = 0;
    u64 lanes_failed_over = 0;
  };

  /// (function name, owning host index, predicted rank-0 demand) in
  /// registration order; a lane transfer rewrites the host index.
  struct Placement {
    std::string function;
    size_t host = 0;
    u64 demand = 0;
  };
  /// What one transfer_lane() moved and charged.
  struct LaneTransfer {
    u64 moved_bytes = 0;    ///< resident snapshot bytes (fast + slow tier)
    Nanos transfer_ns = 0;  ///< one sequential read of moved_bytes
    u64 requeued = 0;       ///< carried queued requests the destination kept
    u64 shed = 0;           ///< carried queued requests shed as kHostLost
  };

  void maybe_migrate();
  /// The one way a lane changes hosts (migration commit and crash
  /// failover): extract slot `slot` of host `from`, charge one sequential
  /// read of its resident snapshot bytes plus `backoff_ns` to its simulated
  /// clock, re-point its placement at `to` and adopt it there.
  LaneTransfer transfer_lane(size_t from, size_t slot, size_t to,
                             Nanos backoff_ns);
  /// The placement of a function registered through add().
  Placement& placement_of(const std::string& function);
  /// Serial failure-domain barrier, run before the hosts step each epoch:
  /// arm kHostCrash / kHostBrownout per alive host in index order, fail
  /// over crashes, stall brownouts, and advance each health breaker.
  void inject_failure_domains();
  void fail_over(size_t dead_host);
  /// Worst-fit over eligible hosts (alive and not quarantined; falls back
  /// to alive-but-quarantined when nothing healthy remains). `exclude` is
  /// skipped (npos = no exclusion). npos when no host is eligible.
  size_t pick_host(u64 demand_bytes, size_t exclude) const;
  void push_health_event(const std::string& host, HostHealthAction action);
  ClusterReport report() const;

  ClusterOptions options_;
  SystemConfig cfg_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<HostHealth> health_;  ///< parallel to hosts_
  /// Backoff jitter for transactional-migration retries. Drawn only at the
  /// serial barrier, in host index order — deterministic.
  Rng migration_rng_{0};
  std::vector<u64> predicted_load_;  ///< placed rank-0 demand per host index
  std::vector<Placement> placements_;
  std::vector<MigrationEvent> migrations_;
  std::vector<FailoverEvent> failovers_;
  std::vector<HostHealthEvent> health_events_;
  u64 hosts_lost_ = 0;
  u64 epochs_ = 0;
};

}  // namespace toss
