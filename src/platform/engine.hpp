// PlatformEngine: the concurrent multi-function engine.
//
// The single-host ServerlessPlatform drives one function at a time on the
// calling thread. The engine scales that out: every registered function
// becomes a *lane* — an isolated single-function host (own SnapshotStore,
// own page cache, own policy state machine) plus its request stream — and
// an epoch-barrier scheduler drains all lanes over a LaneExecutor, whose
// participants claim one lane at a time.
//
// The engine is a thin façade over one Host (platform/host.hpp,
// platform-internal), and its drain is the same loop a ClusterEngine runs
// over many hosts (Host::step_epoch, DESIGN.md §9 and §15). Each epoch
// serves one chunk of up to EngineOptions::chunk requests per active lane in
// parallel, then a serial barrier applies every cross-lane decision (the
// global queue bound, the fast-tier arbiter) in lane registration order.
// The guarantees:
//   - Per-function serialization. An epoch hands each lane to one worker,
//     so a TossFunction state machine is never re-entered concurrently;
//     violations are counted and reported (always 0).
//   - Determinism. Lanes share no mutable state — snapshot file ids, the
//     host page cache and RNG streams are all lane-local — and cross-lane
//     decisions happen only at the barrier, so every outcome and ledger is
//     bit-for-bit identical for any thread count, threads = 1 included.
//     A report holds simulated state only, so the whole contract is one
//     EngineReport::operator==.
//   - Exactly-once accounting. Requests flow through a per-lane
//     simulated-time queue: arrivals are admitted when the lane's
//     simulated clock reaches Request::arrival_ns, and each one is served
//     or shed exactly once (offered == completed + shed).
//   - Observability. Every invocation is counted once, in its lane's
//     FunctionStats (counters + latency histograms), and every admission
//     decision once, in the lane's OverloadStats. The report's
//     FunctionReports carry both; EngineReport::to_json() serializes them
//     with the host rollups for the benches.
//
// Overload protection (DESIGN.md §9) is a set of knobs on that one path,
// all unbounded by default: bounded queues shed deterministically under
// the configured DropPolicy, work whose deadline already passed is shed
// before wasting a restore, the watchdog trips slow lanes' breakers, and
// the arbiter defends the fast-tier budget. Every shed is typed
// (ErrorCode::kOverloaded) and ledgered.
//
// One drain model: run() serves whatever is pending and returns the
// *cumulative* report; drain(batch) first appends the batch to retained
// lanes (each entry validated against its lane's existing arrival tail).
// add() registers another lane at any time. Lane state — simulated clocks,
// arbiter rungs, keep-alive pool, all ledgers — persists between drains.
// Batches that are separated in simulated time (each one arrives after the
// lane served the previous one) give the same report as one run() over the
// concatenated streams, for the lane-local knobs; the cross-lane global
// bound and arbiter ladder see epoch boundaries, which batching shifts
// (DESIGN.md §10).
#pragma once

#include <string>
#include <vector>

#include "platform/host.hpp"

namespace toss {

class PlatformEngine {
 public:
  explicit PlatformEngine(SystemConfig cfg = SystemConfig::paper_default(),
                          PricingPlan pricing = {},
                          EngineOptions options = {});
  ~PlatformEngine();

  PlatformEngine(const PlatformEngine&) = delete;
  PlatformEngine& operator=(const PlatformEngine&) = delete;

  /// Register a function and bind its request stream. Validation mirrors
  /// ServerlessPlatform::register_function, plus every request input must
  /// be in [0, kNumInputs). A lane added after a drain is served by the
  /// next one.
  Result<void> add(const FunctionRegistration& registration,
                   std::vector<Request> requests);

  size_t function_count() const { return host_.function_count(); }

  /// Serve everything pending with options().threads workers and return
  /// the cumulative report. Callable any number of times.
  Result<EngineReport> run();
  /// Same, overriding the thread count (1 = serial reference path).
  Result<EngineReport> run(int threads);

  /// Append `batch` to the retained lanes, then run().
  Result<EngineReport> drain(const RequestBatch& batch = {});
  Result<EngineReport> drain(const RequestBatch& batch, int threads);

  /// Lane state inspection (nullptr for unknown / non-TOSS lanes).
  const TossFunction* toss_state(const std::string& name) const {
    return host_.toss_state(name);
  }
  /// The lane's isolated single-function host (nullptr for unknown names);
  /// exposes its snapshot store, circuit breaker and function stats for
  /// chaos-suite introspection.
  const ServerlessPlatform* lane_host(const std::string& name) const {
    return host_.lane_host(name);
  }

  const EngineOptions& options() const { return host_.options(); }

 private:
  Host host_;
};

}  // namespace toss
