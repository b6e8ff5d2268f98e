// Host: one simulated serverless host — the lane fleet, the epoch-barrier
// scheduler, the bounded admission queues and the per-host fast-tier
// arbiter, extracted from PlatformEngine so a ClusterEngine
// (platform/cluster.hpp) can compose many hosts. PlatformEngine
// (platform/engine.hpp) remains the thin single-host façade clients use.
//
// This header is platform-internal: nothing outside src/platform/ may
// include it directly (toss_lint's host-internal rule). Clients reach the
// shared types below through "platform/engine.hpp" or
// "platform/cluster.hpp".
//
// Every drain runs one loop, Host::step_epoch() over a list of hosts
// (DESIGN.md §9, §15): plan each host serially in list order, one
// LaneExecutor round over every planned lane, then each host's barrier
// serially in list order. PlatformEngine runs it over its one host;
// ClusterEngine over every live host, with its own failure, migration and
// health decisions between epochs.
//
//   - Drains are reusable. drain(threads) serves everything pending and
//     returns a *cumulative* report; enqueue() appends another request
//     batch to a retained lane (validated against the lane's existing
//     arrival tail) and the next drain continues from the retained lane
//     state — simulated clocks, arbiter rungs and every ledger persist
//     across drains.
//   - The arbiter and the epoch counter are host state, so the
//     graceful-degradation ladder keeps its rungs, its demotion stack and
//     its warm pool between drains.
//   - Lanes can be extracted and adopted whole (cross-host migration and
//     crash failover). Extraction leaves a null tombstone so lane indices
//     — which key the arbiter's rung bookkeeping — stay stable. Every
//     per-lane ledger (FunctionStats, OverloadStats, shed events) travels
//     with the lane, so a moved lane reports its whole history under its
//     current host.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "platform/arbiter.hpp"
#include "platform/concurrency.hpp"
#include "platform/metrics.hpp"
#include "platform/platform.hpp"
#include "platform/prewarm.hpp"

namespace toss {

/// What a bounded lane queue sheds when full.
enum class DropPolicy : u8 {
  kTailDrop = 0,  ///< shed the newly arrived request
  kOldestDrop,    ///< shed the head of the queue, admit the newcomer
};

/// One shed decision, carrying the typed ShedCause (platform/qos.hpp); part
/// of the determinism contract (the sequence is bit-identical for any
/// thread count at a fixed seed).
struct ShedEvent {
  size_t request_index = 0;  ///< index into the lane's request stream
  ShedCause cause = ShedCause::kQueueFull;
  Nanos sim_ns = 0;  ///< lane-local simulated time of the decision

  bool operator==(const ShedEvent&) const = default;
};

/// The typed rejection a shed request would have surfaced to its caller.
Error shed_error(const std::string& function, const ShedEvent& event);

/// Per-lane admission/shedding ledger totals.
struct OverloadStats {
  u64 offered = 0;    ///< arrivals that reached admission control
  u64 admitted = 0;   ///< arrivals that entered the queue
  u64 completed = 0;  ///< requests actually served
  /// Per-cause shed counters, indexed by ShedCause (platform/qos.hpp).
  std::array<u64, kShedCauseCount> shed{};
  /// Served past their deadline (admitted, not shed, but SLO-late).
  u64 deadline_misses = 0;
  u64 demotions = 0;   ///< arbiter re-tiered this lane down a rung
  u64 promotions = 0;  ///< arbiter re-tiered this lane back up
  u64 watchdog_trips = 0;
  size_t queue_peak = 0;  ///< high-water mark of the lane queue

  u64 shed_by(ShedCause cause) const {
    return shed[static_cast<size_t>(cause)];
  }
  u64 total_shed() const {
    u64 total = 0;
    for (u64 v : shed) total += v;
    return total;
  }
  /// SLO attainment of this ledger: a shed or SLO-late request counts
  /// against it.
  QosAttainment attainment() const {
    return {offered, completed, completed - deadline_misses};
  }

  bool operator==(const OverloadStats&) const = default;
};

struct EngineOptions {
  /// Worker threads for run()/drain(); 0 = hardware_threads().
  int threads = 0;
  /// Requests a lane serves per epoch (>= 1): the unit of work one
  /// executor index runs between two barriers.
  int chunk = 8;
  /// Keep every served request's InvocationOutcome in the report, in
  /// service order (EDF pops); a shed request has no outcome.
  bool keep_outcomes = true;
  /// Fault plan for the chaos harness. Each lane derives an independent
  /// injector seeded by (fault_plan.seed, lane name), so the fault sequence
  /// a lane sees is identical for any thread count. An unarmed plan (the
  /// default) attaches no injector.
  FaultPlan fault_plan;

  // ---- Overload protection (DESIGN.md §9). All defaults = unbounded:
  // every arrival is admitted and served, and nothing is shed. ----

  /// Bound on each lane's admitted-but-unserved queue; 0 = unbounded.
  size_t max_lane_queue = 0;
  /// Bound on the host-wide sum of lane queue depths; 0 = unbounded.
  size_t max_global_queue = 0;
  DropPolicy drop_policy = DropPolicy::kTailDrop;
  /// Shed queued requests whose Request::deadline_ns already passed
  /// instead of wasting a restore on SLO-dead work.
  bool enforce_deadlines = false;
  /// Watchdog: when one lane chunk's simulated service time exceeds this
  /// bound, the lane's circuit breaker is tripped open. 0 = off.
  Nanos watchdog_chunk_budget_ns = 0;
  /// Host fast-tier budget arbiter (platform/arbiter.hpp).
  ArbiterOptions arbiter;
};

/// The one per-function view of a drain: what the invocations did
/// (stats), what admission decided (overload, shed_events) and the lane's
/// service class.
struct FunctionReport {
  std::string name;
  PolicyKind policy = PolicyKind::kToss;
  QosSpec qos;
  FunctionStats stats;
  TossPhase final_phase = TossPhase::kInitial;  ///< kToss lanes only
  /// Outcomes in service order (EDF pops, not request order); a shed
  /// request has none. Empty unless EngineOptions::keep_outcomes.
  std::vector<InvocationOutcome> outcomes;
  /// Admission/shedding ledger. With every knob at its default it only
  /// conserves: offered == admitted == completed, nothing shed.
  OverloadStats overload;
  /// Shed decisions in decision order.
  std::vector<ShedEvent> shed_events;

  bool operator==(const FunctionReport&) const = default;
};

struct EngineReport {
  /// Layout version of to_json() (the top-level "schema" key; DESIGN.md
  /// §9). Consumers should ignore unknown keys.
  static constexpr int kJsonSchemaVersion = 7;

  std::vector<FunctionReport> functions;  ///< registration order
  /// Times a lane was observed concurrently re-entered. Always 0; exposed
  /// so tests assert the serialization guarantee instead of trusting it.
  u64 serialization_violations = 0;
  /// Host rollups: ladder occupancy, health and per-class SLO attainment.
  MetricsSnapshot metrics;
  /// Host arbiter ledger; all-default unless EngineOptions::arbiter.enabled.
  ArbiterReport arbiter;

  /// The determinism contract: equal for any thread count at a fixed seed.
  bool operator==(const EngineReport&) const = default;

  u64 total_invocations() const;
  u64 total_shed() const;
  const FunctionReport* find(const std::string& name) const;
  /// Metrics JSON schema 7 (platform/metrics.cpp): the host rollups plus
  /// one entry per FunctionReport. Every key is always present; stable key
  /// order, valid JSON.
  std::string to_json() const;
};

/// One request batch for a retained lane, for PlatformEngine::drain /
/// Host::enqueue.
struct LaneBatch {
  std::string function;
  std::vector<Request> requests;
};
using RequestBatch = std::vector<LaneBatch>;

/// One lane: an isolated single-function host plus its request stream and
/// every per-lane ledger. Owned by a Host; moved whole between hosts on
/// migration (lanes share no state, so the unique_ptr move is the entire
/// data-plane transfer — the simulated snapshot copy cost is charged to
/// sim_now by the cluster).
struct HostLane {
  std::string name;
  PolicyKind policy = PolicyKind::kToss;
  /// Isolated host: lane-local snapshot store, page cache and stats, so
  /// no cross-lane state can make results depend on scheduling.
  std::unique_ptr<ServerlessPlatform> host;
  std::vector<Request> requests;
  /// A deque, so an append never copies the history (Host::report does).
  std::deque<InvocationOutcome> outcomes;
  std::atomic<int> in_flight{0};
  /// First invocation failure, recorded lane-locally by the worker that
  /// hit it; the next barrier reports the first failed lane in slot order.
  Result<void> status;

  std::deque<size_t> queue;  ///< admitted, unserved request indices
  size_t arrived = 0;        ///< requests[0..arrived) reached admission
  Nanos sim_now = 0;         ///< lane-local simulated clock
  Nanos last_setup_ns = 0;   ///< keep-alive cold-cost estimate
  OverloadStats overload;
  std::vector<ShedEvent> shed_events;
  bool finish_reported = false;  ///< keep-alive insert happened
  /// Service class + effective SLO slowdown target (DESIGN.md §14); kNone
  /// ranks between bronze and gold and reads the gold admission gate.
  QosSpec qos;
  /// Inter-arrival predictor fed by admitted arrivals; the arbiter tick
  /// turns its prediction into a warm-demand hint (prewarm handshake).
  ArrivalPredictor predictor;

  bool drained() const { return arrived >= requests.size() && queue.empty(); }
};

class Host {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  explicit Host(std::string name,
                SystemConfig cfg = SystemConfig::paper_default(),
                PricingPlan pricing = {}, EngineOptions options = {});
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  const EngineOptions& options() const { return options_; }

  /// Register a function and bind its (possibly empty) request stream.
  /// Validation mirrors ServerlessPlatform::register_function, plus every
  /// request input must be in [0, kNumInputs) and arrivals sorted.
  Result<void> add(const FunctionRegistration& registration,
                   std::vector<Request> requests);

  /// Append another batch to a retained lane. The batch must be internally
  /// sorted and must not arrive before the lane's existing tail (the
  /// simulated clock only moves forward). kUnknownFunction for absent or
  /// migrated-away lanes.
  Result<void> enqueue(const std::string& function,
                       std::vector<Request> requests);

  /// Live (non-migrated) lanes.
  size_t function_count() const;
  /// Every live lane has served everything that has been enqueued so far.
  bool idle() const;

  /// Serve everything pending and return the cumulative report (stats,
  /// outcomes and ledgers since construction, across all drains).
  /// Reusable: enqueue more work and drain again. threads <= 0 = hardware
  /// concurrency. A lane failure is sticky: the error is returned now and
  /// on every later drain.
  Result<EngineReport> drain(int threads);

  /// One epoch over `hosts` (DESIGN.md §15): plan each host serially in
  /// list order, one executor round over every planned lane of every host,
  /// then each host's serial barrier, in list order. Idle hosts sit the
  /// epoch out. Returns the first failure in list order; a planning
  /// failure runs nothing, and every host that ran lanes still finishes
  /// its epoch. A sticky host failure surfaces here on every later call.
  static Result<void> step_epoch(const std::vector<Host*>& hosts,
                                 LaneExecutor& executor);

  /// Epochs this host has completed since construction.
  u64 epochs() const { return epoch_; }

  // ---- Cluster hooks (placement / migration) ----

  /// Consecutive completed epochs with admission closed at the barrier —
  /// the cluster's migration trigger ("pinned at rung C for K epochs").
  int admission_closed_streak() const { return closed_streak_; }
  /// Hysteresis: the cluster resets the streak after acting on it.
  void reset_admission_streak() { closed_streak_ = 0; }

  /// Resolved fast-tier budget (options.arbiter.fast_budget_bytes, or the
  /// SystemConfig's installed fast-tier capacity when 0).
  u64 fast_budget_bytes() const;

  /// Lane-slot count including migration tombstones; lane_at() returns
  /// nullptr for tombstones.
  size_t lane_count() const { return lanes_.size(); }
  const HostLane* lane_at(size_t index) const;

  /// Slot index of the un-drained tiered (migratable) lane with the most
  /// resident fast-tier bytes; npos when none. Ties break toward the
  /// lowest index — deterministic.
  size_t largest_tiered_lane() const;

  /// Remove a lane whole, leaving a null tombstone so the remaining slot
  /// indices (which key the arbiter's bookkeeping) stay stable.
  std::unique_ptr<HostLane> extract_lane(size_t index);

  /// Take ownership of a migrated or failed-over lane: restore its
  /// unconstrained placement (this host's arbiter re-demotes it if the
  /// budget here disagrees), then re-admit its carried queue under this
  /// host's lane bound, shedding the overflow as kHostLost under the drop
  /// policy. Returns the number of queued requests shed.
  Result<u64> adopt_lane(std::unique_ptr<HostLane> lane);

  // ---- Cluster hooks (failure domains) ----

  /// Terminal shed for a crashed host with no survivors: every queued and
  /// not-yet-arrived request on every live lane is shed as kHostLost, so
  /// each request still resolves to exactly one typed outcome. The lanes
  /// become drained (idle() holds) but keep their ledgers for the report.
  /// Returns the number of requests shed.
  u64 abandon_pending(ShedCause cause = ShedCause::kHostLost);

  /// Brownout/straggle: inflate every live lane's simulated clock by
  /// `stall_ns`, modelling a host-wide slowdown for one epoch. Driven from
  /// the cluster's serial barrier, so it is deterministic by construction.
  void apply_brownout(Nanos stall_ns);

  /// Host health governance: while withdrawn, this host's arbiter treats
  /// its fast-tier budget as zero (see FastTierArbiter::set_budget_
  /// withdrawn). No-op when the arbiter is disabled.
  void set_budget_withdrawn(bool withdrawn);

  // ---- Introspection ----

  /// Lane state inspection (nullptr for unknown / non-TOSS lanes).
  const TossFunction* toss_state(const std::string& name) const;
  /// The lane's isolated single-function platform (nullptr for unknown
  /// names); exposes its snapshot store, circuit breaker and function
  /// stats for chaos-suite introspection.
  const ServerlessPlatform* lane_host(const std::string& name) const;

  /// Cumulative report without draining (what drain() returns).
  EngineReport report() const;

 private:
  HostLane* find_lane(const std::string& name);
  const HostLane* find_lane(const std::string& name) const;
  Result<void> validate_requests(const std::string& name,
                                 const std::vector<Request>& requests) const;

  // Epoch-barrier scheduler (DESIGN.md §9), driven only by step_epoch().

  /// One epoch's parallel phase, computed at the serial plan step: which
  /// lane slots run a chunk and the admission-gate snapshot each one sees.
  /// The split lets step_epoch() plan every host serially, flatten all
  /// hosts' (plan, k) pairs into ONE LaneExecutor round — no nested
  /// parallelism — and then run each host's serial barrier in order.
  struct EpochPlan {
    std::vector<size_t> active;  ///< lane slot indices with work this epoch
    std::vector<char> closed;    ///< per-active-lane admission-gate snapshot
    bool empty() const { return active.empty(); }
  };
  /// Serial plan phase: the active-lane set and the admission-gate
  /// snapshot every lane of this epoch will see. Empty plan when idle.
  Result<EpochPlan> plan_epoch();
  /// Parallel phase, safe to run concurrently across k (and across hosts):
  /// one chunk of the k-th planned lane, touching lane-local state only.
  void run_planned_lane(const EpochPlan& plan, size_t k);
  /// Serial barrier phase: report the first failed lane in slot order (the
  /// failure becomes sticky), else the cross-lane decisions (global queue
  /// bound, arbiter ladder) in lane slot order, then the epoch counter.
  /// Called exactly once after the parallel phase of a non-empty plan.
  Result<void> finish_epoch();
  void process_chunk(HostLane& lane, bool admission_closed);
  void admit_arrivals(HostLane& lane, bool admission_closed);
  void shed(HostLane& lane, size_t request_index, ShedCause cause);
  /// Pop the queued request the drop policy sheds first: the newest under
  /// tail-drop, the stalest under oldest-drop. The queue must be non-empty.
  size_t pop_victim(HostLane& lane);
  void enforce_global_queue_bound();
  void arbiter_tick(FastTierArbiter& arbiter, u64 epoch);
  FastTierArbiter* ensure_arbiter();
  /// This host's rollups, tagged with its name (health stays default; the
  /// cluster stamps it).
  MetricsSnapshot rollups() const;

  std::string name_;
  SystemConfig cfg_;
  PricingPlan pricing_;
  EngineOptions options_;
  std::vector<std::unique_ptr<HostLane>> lanes_;  ///< null = migrated away
  /// Persistent across drains, so rungs / demote stack / warm pool /
  /// admission state survive between batches. Created lazily on the first
  /// epoch with the arbiter enabled.
  std::unique_ptr<FastTierArbiter> arbiter_;
  u64 epoch_ = 0;
  int closed_streak_ = 0;
  std::atomic<u64> serialization_violations_{0};
  /// Sticky host failure: the first failed lane a barrier reported.
  Result<void> status_;
};

}  // namespace toss
