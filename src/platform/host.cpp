#include "platform/host.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace toss {

Error shed_error(const std::string& function, const ShedEvent& event) {
  // Host loss is not retryable-later the way overload is: the caller must
  // re-resolve the function's placement first, so it gets its own code.
  const ErrorCode code = event.cause == ShedCause::kHostLost
                             ? ErrorCode::kHostLost
                             : ErrorCode::kOverloaded;
  return Error(code,
               function + ": request " + std::to_string(event.request_index) +
                   " shed (" + shed_cause_name(event.cause) + ")");
}

u64 EngineReport::total_invocations() const {
  u64 n = 0;
  for (const FunctionReport& f : functions) n += f.stats.invocations;
  return n;
}

u64 EngineReport::total_shed() const {
  u64 n = 0;
  for (const FunctionReport& f : functions) n += f.overload.total_shed();
  return n;
}

const FunctionReport* EngineReport::find(const std::string& name) const {
  for (const FunctionReport& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

Host::Host(std::string name, SystemConfig cfg, PricingPlan pricing,
           EngineOptions options)
    : name_(std::move(name)),
      cfg_(std::move(cfg)),
      pricing_(pricing),
      options_(options) {
  options_.chunk = std::max(1, options_.chunk);
}

Host::~Host() = default;

HostLane* Host::find_lane(const std::string& name) {
  for (const auto& lane : lanes_)
    if (lane != nullptr && lane->name == name) return lane.get();
  return nullptr;
}

const HostLane* Host::find_lane(const std::string& name) const {
  for (const auto& lane : lanes_)
    if (lane != nullptr && lane->name == name) return lane.get();
  return nullptr;
}

Result<void> Host::validate_requests(
    const std::string& name, const std::vector<Request>& requests) const {
  // Reject malformed streams up front so the drain cannot fail per-request.
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.input < 0 || r.input >= kNumInputs)
      return {ErrorCode::kInvalidRequest,
              name + ": request input " + std::to_string(r.input) +
                  " outside [0, " + std::to_string(kNumInputs) + ")"};
    if (r.arrival_ns < 0 || r.deadline_ns < 0)
      return {ErrorCode::kInvalidRequest,
              name + ": request " + std::to_string(i) +
                  " has a negative arrival or deadline"};
    if (i > 0 && r.arrival_ns < requests[i - 1].arrival_ns)
      return {ErrorCode::kInvalidRequest,
              name + ": request " + std::to_string(i) +
                  " arrives before its predecessor (streams must be sorted "
                  "by arrival_ns)"};
  }
  return {};
}

Result<void> Host::add(const FunctionRegistration& registration,
                       std::vector<Request> requests) {
  const std::string& name = registration.spec().name;
  if (find_lane(name) != nullptr)
    return {ErrorCode::kDuplicateFunction, name + " is already registered"};
  if (Result<void> valid = validate_requests(name, requests); !valid.ok())
    return valid;

  auto lane = std::make_unique<HostLane>();
  lane->name = name;
  lane->policy = registration.policy();
  // Each lane gets its own injector stream keyed by name, so lanes fault
  // independently and deterministically regardless of scheduling.
  FaultPlan lane_plan = options_.fault_plan;
  lane_plan.seed = mix_seed(options_.fault_plan.seed, name);
  lane->host =
      std::make_unique<ServerlessPlatform>(cfg_, pricing_, std::move(lane_plan));
  if (Result<void> reg = lane->host->register_function(registration);
      !reg.ok())
    return reg;
  lane->requests = std::move(requests);
  lane->qos = registration.qos_spec();
  lanes_.push_back(std::move(lane));
  return {};
}

Result<void> Host::enqueue(const std::string& function,
                           std::vector<Request> requests) {
  HostLane* lane = find_lane(function);
  if (lane == nullptr)
    return {ErrorCode::kUnknownFunction,
            function + " is not registered on host " + name_};
  if (Result<void> valid = validate_requests(function, requests); !valid.ok())
    return valid;
  if (requests.empty()) return {};
  if (!lane->requests.empty() &&
      requests.front().arrival_ns < lane->requests.back().arrival_ns)
    return {ErrorCode::kInvalidRequest,
            function + ": batch arrives before the lane's existing tail "
                       "(the simulated clock only moves forward)"};
  // The lane is live again: the next time it drains counts as a fresh
  // finish for the keep-alive accounting.
  lane->finish_reported = false;
  lane->requests.insert(lane->requests.end(),
                        std::make_move_iterator(requests.begin()),
                        std::make_move_iterator(requests.end()));
  return {};
}

size_t Host::function_count() const {
  size_t n = 0;
  for (const auto& lane : lanes_)
    if (lane != nullptr) ++n;
  return n;
}

bool Host::idle() const {
  for (const auto& lane : lanes_)
    if (lane != nullptr && !lane->drained()) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Epoch-barrier scheduler (DESIGN.md §9).
//
// Each epoch runs one chunk per active lane over the executor — lanes
// touch only lane-local state, so the parallel phase is trivially
// deterministic — then a serial barrier applies every cross-lane decision
// (global queue bound, arbiter ladder) in lane slot order. The resulting
// shed/arbiter ledgers are bit-identical for any thread count.

void Host::shed(HostLane& lane, size_t request_index, ShedCause cause) {
  ++lane.overload.shed[static_cast<size_t>(cause)];
  lane.shed_events.push_back(ShedEvent{request_index, cause, lane.sim_now});
}

size_t Host::pop_victim(HostLane& lane) {
  size_t idx = 0;
  if (options_.drop_policy == DropPolicy::kTailDrop) {
    idx = lane.queue.back();
    lane.queue.pop_back();
  } else {
    idx = lane.queue.front();
    lane.queue.pop_front();
  }
  return idx;
}

void Host::admit_arrivals(HostLane& lane, bool admission_closed) {
  while (lane.arrived < lane.requests.size() &&
         lane.requests[lane.arrived].arrival_ns <= lane.sim_now) {
    const size_t idx = lane.arrived++;
    ++lane.overload.offered;
    // Every offered arrival feeds the inter-arrival predictor (prewarm
    // handshake): sheds are demand too.
    lane.predictor.observe(lane.requests[idx].arrival_ns);
    if (admission_closed) {
      shed(lane, idx, ShedCause::kAdmissionClosed);
      continue;
    }
    if (options_.max_lane_queue > 0 &&
        lane.queue.size() >= options_.max_lane_queue) {
      if (options_.drop_policy == DropPolicy::kTailDrop) {
        shed(lane, idx, ShedCause::kQueueFull);
        continue;
      }
      // Oldest-drop: the newcomer displaces the stalest queued request.
      shed(lane, pop_victim(lane), ShedCause::kQueueFull);
    }
    lane.queue.push_back(idx);
    ++lane.overload.admitted;
    lane.overload.queue_peak =
        std::max(lane.overload.queue_peak, lane.queue.size());
  }
}

void Host::process_chunk(HostLane& lane, bool admission_closed) {
  // Serialization guard: an epoch hands each lane to one executor index; a
  // violation here means the plan listed a lane twice. Release builds
  // count it (EngineReport::serialization_violations, asserted 0 by
  // tests); checked builds abort on the spot, before the re-entered
  // TossFunction state machine can corrupt anything.
  const int prior = lane.in_flight.fetch_add(1, std::memory_order_acq_rel);
  TOSS_ASSERT(prior == 0, "lane re-entered concurrently");
  if (prior != 0)
    serialization_violations_.fetch_add(1, std::memory_order_relaxed);

  Nanos chunk_service_ns = 0;
  int budget = options_.chunk;
  while (budget > 0) {
    admit_arrivals(lane, admission_closed);
    if (lane.queue.empty()) {
      if (lane.arrived >= lane.requests.size()) break;  // stream drained
      // Idle: fast-forward the simulated clock to the next arrival.
      lane.sim_now =
          std::max(lane.sim_now, lane.requests[lane.arrived].arrival_ns);
      continue;
    }
    // Pop order: earliest-deadline-first (zero deadlines sort last, ties
    // keep the lowest queue position), so SLO-bearing work is served
    // before best-effort. Without deadlines this is FIFO.
    size_t pos = 0;
    if (lane.queue.size() > 1) {
      Nanos best_deadline = std::numeric_limits<Nanos>::max();
      for (size_t q = 0; q < lane.queue.size(); ++q) {
        const Nanos dl = lane.requests[lane.queue[q]].deadline_ns;
        const Nanos key = dl > 0 ? dl : std::numeric_limits<Nanos>::max();
        if (key < best_deadline) {
          best_deadline = key;
          pos = q;
        }
      }
    }
    const size_t idx = lane.queue[pos];
    lane.queue.erase(lane.queue.begin() + static_cast<std::ptrdiff_t>(pos));
    const Request& r = lane.requests[idx];
    if (options_.enforce_deadlines && r.deadline_ns > 0 &&
        lane.sim_now > r.deadline_ns) {
      // SLO-dead before service even starts: shed instead of wasting a
      // restore. Costs no simulated time and no chunk budget.
      shed(lane, idx, ShedCause::kDeadlineExpired);
      continue;
    }
    Result<InvocationOutcome> out =
        lane.host->invoke(lane.name, r.input, r.seed);
    if (!out.ok()) {  // inputs are pre-validated; belt-and-braces path
      lane.status = {out.code(), out.message()};
      lane.arrived = lane.requests.size();
      lane.queue.clear();
      break;
    }
    const InvocationOutcome& o = *out;
    lane.sim_now += o.result.total_ns();
    chunk_service_ns += o.result.total_ns();
    lane.last_setup_ns = o.result.setup.setup_ns;
    ++lane.overload.completed;
    if (r.deadline_ns > 0 && lane.sim_now > r.deadline_ns)
      ++lane.overload.deadline_misses;
    if (options_.keep_outcomes) lane.outcomes.push_back(o);
    --budget;
  }

  // Watchdog: a chunk whose simulated service time blows the bound marks a
  // pathologically slow lane; trip its breaker so it degrades to the
  // single-tier rung instead of dragging the whole epoch.
  if (options_.watchdog_chunk_budget_ns > 0 &&
      chunk_service_ns > options_.watchdog_chunk_budget_ns) {
    lane.host->trip_breaker(lane.name);
    ++lane.overload.watchdog_trips;
  }

  lane.in_flight.fetch_sub(1, std::memory_order_acq_rel);
}

void Host::enforce_global_queue_bound() {
  if (options_.max_global_queue == 0) return;
  size_t total = 0;
  for (const auto& lane : lanes_)
    if (lane != nullptr) total += lane->queue.size();
  while (total > options_.max_global_queue) {
    // Trim the longest queue; ties break toward the lowest lane index.
    // Class outranks length: bronze queues are trimmed to exhaustion
    // before unclassed ones, and gold last.
    size_t victim = lanes_.size();
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i] == nullptr || lanes_[i]->queue.empty()) continue;
      if (victim == lanes_.size()) {
        victim = i;
        continue;
      }
      const int ri = qos_shed_rank(lanes_[i]->qos.cls);
      const int rv = qos_shed_rank(lanes_[victim]->qos.cls);
      if (ri != rv) {
        if (ri < rv) victim = i;
        continue;
      }
      if (lanes_[i]->queue.size() > lanes_[victim]->queue.size()) victim = i;
    }
    if (victim == lanes_.size()) return;  // unreachable; defensive
    HostLane& lane = *lanes_[victim];
    shed(lane, pop_victim(lane), ShedCause::kGlobalOverload);
    --total;
  }
}

FastTierArbiter* Host::ensure_arbiter() {
  if (arbiter_ == nullptr) {
    ArbiterOptions aopt = options_.arbiter;
    if (aopt.fast_budget_bytes == 0)
      aopt.fast_budget_bytes = cfg_.fastest().capacity_bytes;
    arbiter_ = std::make_unique<FastTierArbiter>(aopt, aopt.fast_budget_bytes);
  }
  return arbiter_.get();
}

u64 Host::fast_budget_bytes() const {
  return options_.arbiter.fast_budget_bytes != 0
             ? options_.arbiter.fast_budget_bytes
             : cfg_.fastest().capacity_bytes;
}

void Host::arbiter_tick(FastTierArbiter& arbiter, u64 epoch) {
  std::vector<FastTierArbiter::LaneDemand> demands;
  demands.reserve(lanes_.size());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i] == nullptr) continue;  // migrated away
    HostLane& lane = *lanes_[i];
    FastTierArbiter::LaneDemand d;
    d.lane = i;
    d.name = &lane.name;
    const bool drained = lane.drained();
    d.active = !drained && !lane.requests.empty();
    if (drained && !lane.finish_reported && !lane.requests.empty()) {
      d.just_finished = true;
      lane.finish_reported = true;
    }
    const ServerlessPlatform::ResidentBytes rb =
        lane.host->resident_bytes(lane.name);
    d.fast_bytes = rb.fast;
    d.slow_bytes = rb.slow;
    const TossFunction* toss = lane.host->toss_state(lane.name);
    d.demotable = toss != nullptr && toss->phase() == TossPhase::kTiered;
    d.cold_cost_ns = lane.last_setup_ns;
    d.qos = lane.qos.cls;
    // The lane's remaining Eq-1 demotion curve (cheapest prefix per
    // strictly-smaller rank-0 footprint, nearest first): the only steps
    // the arbiter demotes through.
    if (d.demotable) {
      if (const TieringDecision* dec = toss->decision()) {
        d.curve.reserve(dec->demotion_curve.size());
        for (const CostCurvePoint& p : dec->demotion_curve)
          d.curve.push_back(CurveStep{p.prefix, p.fast_bytes});
      }
    }
    // Prewarm handshake: a warm VM whose next arrival is predicted soon is
    // worth more than its GDSF priority alone says. -1 = no prediction.
    if (const std::optional<Nanos> next = lane.predictor.predicted_next();
        next.has_value())
      d.predicted_reuse_gap_ns = std::max<Nanos>(0, *next - lane.sim_now);
    demands.push_back(d);
  }

  const auto apply = [this, &arbiter](size_t li, int rung,
                                      const RetierBound& bound)
      -> std::optional<u64> {
    HostLane& lane = *lanes_[li];
    TossFunction* toss = lane.host->toss_state_mutable(lane.name);
    if (toss == nullptr || !toss->retier(bound)) return std::nullopt;
    // The arbiter records the move after this hook returns, so rung(li) is
    // still the depth the lane is leaving.
    if (rung > arbiter.rung(li))
      ++lane.overload.demotions;
    else
      ++lane.overload.promotions;
    return lane.host->resident_bytes(lane.name).fast;
  };
  arbiter.tick(epoch, demands, apply);
}

Result<Host::EpochPlan> Host::plan_epoch() {
  if (!status_.ok()) return {status_.code(), status_.message()};
  EpochPlan plan;
  plan.active.reserve(lanes_.size());
  for (size_t i = 0; i < lanes_.size(); ++i)
    if (lanes_[i] != nullptr && !lanes_[i]->drained()) plan.active.push_back(i);
  if (plan.active.empty()) return plan;

  FastTierArbiter* arbiter =
      options_.arbiter.enabled ? ensure_arbiter() : nullptr;
  // Snapshot the admission gates once per epoch so every lane sees the same
  // decision regardless of scheduling. Per-class gates resolve here,
  // serially.
  plan.closed.assign(plan.active.size(), 0);
  if (arbiter != nullptr)
    for (size_t k = 0; k < plan.active.size(); ++k)
      plan.closed[k] =
          arbiter->admission_closed(lanes_[plan.active[k]]->qos.cls) ? 1 : 0;
  return plan;
}

void Host::run_planned_lane(const EpochPlan& plan, size_t k) {
  process_chunk(*lanes_[plan.active[k]], plan.closed[k] != 0);
}

Result<void> Host::finish_epoch() {
  // The executor joined before this runs, so reading the lanes' failures
  // and applying the cross-lane barrier decisions cannot race with
  // workers. Slot order makes the reported failure independent of which
  // worker hit its error first.
  for (const auto& lane : lanes_) {
    if (lane == nullptr || lane->status.ok()) continue;
    status_ = lane->status;
    break;
  }
  if (!status_.ok()) return status_;
  // Exactly-once accounting, per lane at every barrier: each offered
  // arrival is served, shed or still queued, and the platform's invocation
  // count is the admission ledger's completions.
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;
    const OverloadStats& o = lane->overload;
    TOSS_ASSERT(o.offered == o.completed + o.total_shed() + lane->queue.size(),
                "lane request conservation broken");
    TOSS_ASSERT(lane->host->stats(lane->name).invocations == o.completed,
                "lane invocation count disagrees with its completions");
  }
  enforce_global_queue_bound();
  if (options_.arbiter.enabled) {
    FastTierArbiter& arbiter = *ensure_arbiter();
    arbiter_tick(arbiter, epoch_);
    closed_streak_ = arbiter.admission_closed() ? closed_streak_ + 1 : 0;
  }
  ++epoch_;
  return {};
}

Result<void> Host::step_epoch(const std::vector<Host*>& hosts,
                              LaneExecutor& executor) {
  // Plan serially in list order. Each plan's lanes take a contiguous range
  // of one flat index space, so a single executor round covers every host.
  struct Planned {
    Host* host = nullptr;
    EpochPlan plan;
    size_t first = 0;  ///< flat index of the plan's first lane
  };
  std::vector<Planned> planned;
  planned.reserve(hosts.size());
  size_t tasks = 0;
  for (Host* host : hosts) {
    Result<EpochPlan> plan = host->plan_epoch();
    if (!plan.ok()) return {plan.code(), plan.message()};
    if (plan->empty()) continue;
    planned.push_back(Planned{host, std::move(plan).value(), tasks});
    tasks += planned.back().plan.active.size();
  }
  executor.run_epoch(tasks, [&](size_t task) {
    // The owner of a flat index is the last plan starting at or before it.
    const auto owner = std::prev(std::upper_bound(
        planned.begin(), planned.end(), task,
        [](size_t t, const Planned& p) { return t < p.first; }));
    owner->host->run_planned_lane(owner->plan, task - owner->first);
  });
  Result<void> status;
  for (const Planned& p : planned) {
    Result<void> finished = p.host->finish_epoch();
    if (status.ok() && !finished.ok()) status = std::move(finished);
  }
  return status;
}

Result<EngineReport> Host::drain(int threads) {
  if (!status_.ok()) return {status_.code(), status_.message()};
  if (threads <= 0) threads = hardware_threads();

  Result<void> stepped;
  {
    // An epoch runs at most one index per lane, so participants beyond
    // the lane count could only idle.
    LaneExecutor executor(static_cast<int>(
        std::min(static_cast<size_t>(threads), function_count())));
    const std::vector<Host*> self{this};
    while (stepped.ok() && !idle()) stepped = step_epoch(self, executor);
  }
  if (!stepped.ok()) return {stepped.code(), stepped.message()};
  return report();
}

EngineReport Host::report() const {
  EngineReport report;
  report.serialization_violations =
      serialization_violations_.load(std::memory_order_relaxed);
  report.functions.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;  // migrated away; its new host reports it
    FunctionReport f;
    f.name = lane->name;
    f.policy = lane->policy;
    f.qos = lane->qos;
    f.stats = lane->host->stats(lane->name);
    if (const TossFunction* toss = lane->host->toss_state(lane->name))
      f.final_phase = toss->phase();
    // Copied, not moved: the lanes stay serviceable and the next drain's
    // report must still be cumulative.
    f.outcomes.assign(lane->outcomes.begin(), lane->outcomes.end());
    f.overload = lane->overload;
    f.shed_events = lane->shed_events;
    report.functions.push_back(std::move(f));
  }
  report.metrics = rollups();
  if (arbiter_ != nullptr) report.arbiter = arbiter_->report();
  return report;
}

MetricsSnapshot Host::rollups() const {
  MetricsSnapshot snap;
  snap.host = name_;
  // Ladder rollup: what every still-resident lane pins in each rank right
  // now, against the rank's installed capacity.
  snap.tiers.resize(cfg_.tier_count());
  for (size_t r = 0; r < snap.tiers.size(); ++r) {
    snap.tiers[r].tier = tier_name(tier_index(r));
    snap.tiers[r].capacity_bytes = cfg_.tiers[r].capacity_bytes;
  }
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;
    const auto resident = lane->host->resident_bytes(lane->name);
    for (size_t r = 0; r < snap.tiers.size() && r < resident.per_tier.size();
         ++r)
      snap.tiers[r].resident_bytes += resident.per_tier[r];
  }
  for (TierRollup& t : snap.tiers)
    if (t.capacity_bytes > 0)
      t.occupancy = static_cast<double>(t.resident_bytes) /
                    static_cast<double>(t.capacity_bytes);
  // Per-class SLO rollup in QosClass enum order; unclassed lanes add
  // nothing. Derived from barrier-serial counters, so it inherits the
  // engine's thread-count independence.
  for (QosClass cls : {QosClass::kGold, QosClass::kBronze}) {
    QosClassRollup rollup;
    rollup.cls = cls;
    bool any = false;
    for (const auto& lane : lanes_) {
      if (lane == nullptr || lane->qos.cls != cls) continue;
      any = true;
      rollup.ledger += lane->overload.attainment();
    }
    if (any) snap.qos.push_back(rollup);
  }
  return snap;
}

const TossFunction* Host::toss_state(const std::string& name) const {
  const HostLane* lane = find_lane(name);
  return lane != nullptr ? lane->host->toss_state(name) : nullptr;
}

const ServerlessPlatform* Host::lane_host(const std::string& name) const {
  const HostLane* lane = find_lane(name);
  return lane != nullptr ? lane->host.get() : nullptr;
}

// ---------------------------------------------------------------------------
// Migration hooks (platform/cluster.hpp drives these at its serial barrier).

const HostLane* Host::lane_at(size_t index) const {
  return index < lanes_.size() ? lanes_[index].get() : nullptr;
}

size_t Host::largest_tiered_lane() const {
  size_t best = npos;
  u64 best_bytes = 0;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const HostLane* lane = lanes_[i].get();
    if (lane == nullptr || lane->drained()) continue;
    const TossFunction* toss = lane->host->toss_state(lane->name);
    if (toss == nullptr || toss->phase() != TossPhase::kTiered) continue;
    const u64 fast = lane->host->resident_bytes(lane->name).fast;
    if (best == npos || fast > best_bytes) {
      best = i;
      best_bytes = fast;
    }
  }
  return best;
}

std::unique_ptr<HostLane> Host::extract_lane(size_t index) {
  if (index >= lanes_.size()) return nullptr;
  // The null tombstone keeps later slot indices stable; the arbiter's
  // stale-entry handling pops the vanished lane from its demote stack on
  // the next tick (the same path a finished lane takes).
  return std::move(lanes_[index]);
}

Result<u64> Host::adopt_lane(std::unique_ptr<HostLane> lane) {
  if (lane == nullptr)
    return {ErrorCode::kInvalidRequest, name_ + ": cannot adopt a null lane"};
  if (find_lane(lane->name) != nullptr)
    return {ErrorCode::kDuplicateFunction,
            lane->name + " is already registered on host " + name_};
  // Arrive un-demoted: the new host was chosen for its headroom, so restore
  // the unconstrained Step-IV placement and let this host's arbiter
  // re-demote if its budget disagrees.
  if (TossFunction* toss = lane->host->toss_state_mutable(lane->name);
      toss != nullptr && !toss->retier_bound().trivial())
    toss->retier(RetierBound{});
  // Re-admission under this host's lane bound. Hosts of one cluster share
  // the bound the source lane already held, so there nothing is shed.
  u64 dropped = 0;
  if (options_.max_lane_queue > 0)
    for (; lane->queue.size() > options_.max_lane_queue; ++dropped)
      shed(*lane, pop_victim(*lane), ShedCause::kHostLost);
  lanes_.push_back(std::move(lane));
  return dropped;
}

// ---------------------------------------------------------------------------
// Failure-domain hooks (cluster failover / health governance).

u64 Host::abandon_pending(ShedCause cause) {
  u64 dropped = 0;
  for (const auto& lane : lanes_) {
    if (lane == nullptr) continue;
    // Queued requests were admitted but never served.
    while (!lane->queue.empty()) {
      shed(*lane, lane->queue.front(), cause);
      lane->queue.pop_front();
      ++dropped;
    }
    // Future arrivals never reach admission anywhere: they are offered to
    // (and shed by) the dead host so each one still has a typed outcome.
    while (lane->arrived < lane->requests.size()) {
      const size_t idx = lane->arrived++;
      ++lane->overload.offered;
      shed(*lane, idx, cause);
      ++dropped;
    }
  }
  return dropped;
}

void Host::apply_brownout(Nanos stall_ns) {
  if (stall_ns <= 0) return;
  for (const auto& lane : lanes_) {
    if (lane == nullptr || lane->drained()) continue;
    lane->sim_now += stall_ns;
  }
}

void Host::set_budget_withdrawn(bool withdrawn) {
  if (!options_.arbiter.enabled) return;
  ensure_arbiter()->set_budget_withdrawn(withdrawn);
}

}  // namespace toss
