#include "platform/cluster.hpp"

#include <algorithm>

#include "core/optimizer.hpp"
#include "trace/pattern.hpp"
#include "util/contracts.hpp"
#include "workloads/function_model.hpp"

namespace toss {

const char* migration_outcome_name(MigrationOutcome outcome) {
  switch (outcome) {
    case MigrationOutcome::kCommitted: return "committed";
    case MigrationOutcome::kAborted: return "aborted";
  }
  return "?";
}

const char* host_health_action_name(HostHealthAction action) {
  switch (action) {
    case HostHealthAction::kBrownout: return "brownout";
    case HostHealthAction::kQuarantine: return "quarantine";
    case HostHealthAction::kProbe: return "probe";
    case HostHealthAction::kReadmit: return "readmit";
    case HostHealthAction::kCrash: return "crash";
  }
  return "?";
}

u64 ClusterReport::total_invocations() const {
  u64 n = 0;
  for (const ClusterHostReport& h : hosts) n += h.report.total_invocations();
  return n;
}

u64 ClusterReport::total_shed() const {
  u64 n = 0;
  for (const ClusterHostReport& h : hosts) n += h.report.total_shed();
  return n;
}

const FunctionReport* ClusterReport::find(const std::string& name) const {
  for (const ClusterHostReport& h : hosts)
    if (const FunctionReport* f = h.report.find(name)) return f;
  return nullptr;
}

std::string ClusterReport::to_json() const {
  std::string out =
      "{\"schema\":" + std::to_string(EngineReport::kJsonSchemaVersion) +
      ",\"cluster\":{\"hosts\":" + std::to_string(hosts.size()) +
      ",\"epochs\":" + std::to_string(epochs) +
      ",\"migrations\":" + std::to_string(migrations.size()) +
      ",\"total_invocations\":" + std::to_string(total_invocations()) +
      ",\"total_shed\":" + std::to_string(total_shed()) +
      ",\"hosts_lost\":" + std::to_string(hosts_lost) +
      ",\"migration_events\":[";
  for (size_t i = 0; i < migrations.size(); ++i) {
    const MigrationEvent& m = migrations[i];
    if (i) out += ",";
    out += "{\"epoch\":" + std::to_string(m.epoch) + ",\"function\":\"" +
           m.function + "\",\"from\":\"" + m.from_host + "\",\"to\":\"" +
           m.to_host + "\",\"moved_bytes\":" + std::to_string(m.moved_bytes) +
           ",\"transfer_ns\":" +
           std::to_string(static_cast<unsigned long long>(m.transfer_ns)) +
           ",\"outcome\":\"" + migration_outcome_name(m.outcome) +
           "\",\"attempts\":" + std::to_string(m.attempts) +
           ",\"retry_backoff_ns\":" +
           std::to_string(static_cast<unsigned long long>(m.retry_backoff_ns)) +
           "}";
  }
  out += "],\"failover_events\":[";
  for (size_t i = 0; i < failovers.size(); ++i) {
    const FailoverEvent& f = failovers[i];
    if (i) out += ",";
    out += "{\"epoch\":" + std::to_string(f.epoch) + ",\"function\":\"" +
           f.function + "\",\"from\":\"" + f.from_host + "\",\"to\":\"" +
           f.to_host + "\",\"moved_bytes\":" + std::to_string(f.moved_bytes) +
           ",\"restore_ns\":" +
           std::to_string(static_cast<unsigned long long>(f.restore_ns)) +
           ",\"requeued\":" + std::to_string(f.requeued) +
           ",\"shed\":" + std::to_string(f.shed) + "}";
  }
  out += "],\"health_events\":[";
  for (size_t i = 0; i < health_events.size(); ++i) {
    const HostHealthEvent& h = health_events[i];
    if (i) out += ",";
    out += "{\"epoch\":" + std::to_string(h.epoch) + ",\"host\":\"" + h.host +
           "\",\"action\":\"" + host_health_action_name(h.action) + "\"}";
  }
  // Cluster-wide per-class SLO rollup: the hosts' per-class ledgers summed
  // in QosClass enum order; empty for unclassed fleets.
  out += "],\"qos\":[";
  bool first = true;
  for (QosClass cls : {QosClass::kGold, QosClass::kBronze}) {
    QosAttainment sum;
    bool any = false;
    for (const ClusterHostReport& h : hosts)
      for (const QosClassRollup& r : h.report.metrics.qos)
        if (r.cls == cls) {
          any = true;
          sum += r.ledger;
        }
    if (!any) continue;
    if (!first) out += ",";
    first = false;
    out += qos_rollup_json(cls, sum);
  }
  out += "]},\"hosts\":[";
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (i) out += ",";
    out += hosts[i].report.to_json();
  }
  out += "]}";
  return out;
}

size_t place_on_host(u64 demand_bytes, const std::vector<u64>& predicted_load,
                     u64 fast_budget_bytes) {
  // Worst-fit: among hosts where the demand fits, the one with the most
  // headroom (spreads load, leaves the biggest holes for future large
  // functions). When nothing fits, the least overloaded host takes the
  // spill and its arbiter degrades gracefully. Ties toward index 0.
  size_t best_fit = Host::npos;
  u64 best_headroom = 0;
  size_t least_bad = Host::npos;
  u64 least_load = 0;
  for (size_t i = 0; i < predicted_load.size(); ++i) {
    const u64 load = predicted_load[i];
    if (load + demand_bytes <= fast_budget_bytes) {
      const u64 headroom = fast_budget_bytes - load;
      if (best_fit == Host::npos || headroom > best_headroom) {
        best_fit = i;
        best_headroom = headroom;
      }
    }
    if (least_bad == Host::npos || load < least_load) {
      least_bad = i;
      least_load = load;
    }
  }
  return best_fit != Host::npos ? best_fit : least_bad;
}

std::vector<u64> predicted_tier_demand(
    const SystemConfig& cfg, const FunctionRegistration& registration) {
  std::vector<u64> demand(cfg.tier_count(), 0);
  // Baselines restore the whole image into DRAM on every invocation.
  if (registration.policy() != PolicyKind::kToss) {
    demand[0] = registration.spec().guest_bytes();
    return demand;
  }

  // TOSS: an offline Step-III analysis — the exact, unscaled counts of
  // every input at the registration seed, max-merged and profiled against
  // input 0 — then the Step-IV placement's per-rank share. A lane merges
  // scaled DAMON records of its own requests and profiles against its
  // largest invocation instead, so this is an estimate of its kTiered
  // footprint, not that footprint.
  const FunctionModel model(registration.spec());
  PageAccessCounts unified(model.guest_pages());
  Invocation representative;
  for (int input = 0; input < kNumInputs; ++input) {
    Invocation inv = model.invoke(input, registration.seed());
    unified.merge_max(
        PageAccessCounts::from_trace(inv.trace, model.guest_pages()));
    if (input == 0) representative = std::move(inv);
  }
  TieringOptions topt;
  topt.bin_count = registration.toss_options().bin_count;
  topt.slowdown_threshold = registration.toss_options().slowdown_threshold;
  topt.slo_slowdown = registration.toss_options().slo_slowdown;
  const TieringDecision decision =
      analyze_pattern(cfg, unified, representative, topt);
  const std::vector<u64> pages =
      decision.placement.pages_per_rank(cfg.tier_count());
  for (size_t r = 0; r < demand.size(); ++r)
    demand[r] = bytes_for_pages(pages[r]);
  return demand;
}

u64 predicted_fast_demand(const SystemConfig& cfg,
                          const FunctionRegistration& registration) {
  return predicted_tier_demand(cfg, registration).front();
}

ClusterEngine::ClusterEngine(ClusterOptions options, SystemConfig cfg,
                             PricingPlan pricing)
    : options_(options), cfg_(std::move(cfg)) {
  options_.hosts = std::max<size_t>(1, options_.hosts);
  options_.migrate_after_pinned_epochs =
      std::max(1, options_.migrate_after_pinned_epochs);
  // Placement and migration reason about per-host fast-tier budgets, so
  // every host runs with its arbiter on.
  options_.host_options.arbiter.enabled = true;
  hosts_.reserve(options_.hosts);
  health_.reserve(options_.hosts);
  for (size_t i = 0; i < options_.hosts; ++i) {
    hosts_.push_back(std::make_unique<Host>("host" + std::to_string(i), cfg_,
                                            pricing, options_.host_options));
    // Per-host injector keyed by host name: crashes, brownouts and
    // transfer aborts replay identically for a fixed plan seed, and one
    // host's draws never shift another's schedule.
    FaultPlan host_plan = options_.cluster_fault_plan;
    host_plan.seed =
        mix_seed(options_.cluster_fault_plan.seed, hosts_.back()->name());
    HostHealth h;
    h.injector = std::make_unique<FaultInjector>(std::move(host_plan), 0);
    h.breaker = CircuitBreaker(options_.health_breaker);
    health_.push_back(std::move(h));
  }
  migration_rng_ =
      Rng(mix_seed(options_.cluster_fault_plan.seed, "migration-backoff"));
  predicted_load_.assign(options_.hosts, 0);
}

ClusterEngine::~ClusterEngine() = default;

size_t ClusterEngine::host_of(const std::string& function) const {
  for (const Placement& p : placements_)
    if (p.function == function) return p.host;
  return npos;
}

size_t ClusterEngine::function_count() const {
  size_t n = 0;
  for (const auto& host : hosts_) n += host->function_count();
  return n;
}

Result<void> ClusterEngine::add(const FunctionRegistration& registration,
                                std::vector<Request> requests) {
  const std::string& name = registration.spec().name;
  if (host_of(name) != npos)
    return {ErrorCode::kDuplicateFunction, name + " is already registered"};
  // The demand estimate runs an offline Step III on these options, so
  // they are validated before it, not only when the host registers them.
  if (Result<void> valid = registration.validate(); !valid.ok()) return valid;
  // Placement binds on rank 0 only: the fast tier is the arbiter-defended
  // scarce resource; deeper rungs are modelled as abundant. Dead and
  // quarantined hosts are not eligible targets.
  const u64 demand = predicted_fast_demand(cfg_, registration);
  const size_t target = pick_host(demand, npos);
  if (target == npos)
    return {ErrorCode::kHostLost,
            name + ": no live host is eligible for placement"};
  if (Result<void> added = hosts_[target]->add(registration, std::move(requests));
      !added.ok())
    return added;
  predicted_load_[target] += demand;
  placements_.push_back(Placement{name, target, demand});
  return {};
}

Result<void> ClusterEngine::enqueue(const std::string& function,
                                    std::vector<Request> requests) {
  const size_t target = host_of(function);
  if (target == npos)
    return {ErrorCode::kUnknownFunction,
            function + " is not registered on any host"};
  // A placement still pointing at a dead host means the lane could not be
  // failed over (no survivors): the loss is typed, not silently queued
  // into the void.
  if (health_[target].dead)
    return {ErrorCode::kHostLost,
            function + " was lost with host " + hosts_[target]->name()};
  return hosts_[target]->enqueue(function, std::move(requests));
}

bool ClusterEngine::host_quarantined(size_t index) const {
  return health_[index].breaker.state() != CircuitBreaker::State::kClosed;
}

size_t ClusterEngine::pick_host(u64 demand_bytes, size_t exclude) const {
  // Two passes: healthy hosts first, alive-but-quarantined as a last
  // resort (landing on a browned-out host beats shedding a whole lane).
  // The candidate list is compacted so a dead host can never win the
  // worst-fit by sentinel accident.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<size_t> idx;
    std::vector<u64> loads;
    for (size_t i = 0; i < hosts_.size(); ++i) {
      if (i == exclude || health_[i].dead) continue;
      if ((pass == 0) == host_quarantined(i)) continue;
      idx.push_back(i);
      loads.push_back(predicted_load_[i]);
    }
    if (idx.empty()) continue;
    // Compaction preserves index order, so place_on_host's lowest-index
    // tie-break survives the mapping back.
    return idx[place_on_host(demand_bytes, loads,
                             hosts_[idx[0]]->fast_budget_bytes())];
  }
  return npos;
}

void ClusterEngine::push_health_event(const std::string& host,
                                      HostHealthAction action) {
  health_events_.push_back(HostHealthEvent{epochs_, host, action});
}

ClusterEngine::Placement& ClusterEngine::placement_of(
    const std::string& function) {
  const auto it =
      std::find_if(placements_.begin(), placements_.end(),
                   [&](const Placement& p) { return p.function == function; });
  TOSS_ASSERT(it != placements_.end(), "lane without a placement");
  return *it;
}

ClusterEngine::LaneTransfer ClusterEngine::transfer_lane(size_t from,
                                                         size_t slot,
                                                         size_t to,
                                                         Nanos backoff_ns) {
  std::unique_ptr<HostLane> lane = hosts_[from]->extract_lane(slot);
  // The snapshot files travel with the lane's own (durable) SnapshotStore:
  // copying them out for a migration, or re-materializing a crashed host's
  // lane on a survivor, costs one sequential read of the resident bytes.
  // That — plus any backoff burned on aborted attempts — is charged to the
  // lane's clock, so a moved function visibly stalls.
  const ServerlessPlatform::ResidentBytes rb =
      lane->host->resident_bytes(lane->name);
  LaneTransfer t;
  t.moved_bytes = rb.fast + rb.slow;
  t.transfer_ns = lane->host->store().seq_read_ns(t.moved_bytes);
  lane->sim_now += t.transfer_ns + backoff_ns;
  Placement& p = placement_of(lane->name);
  predicted_load_[from] -= std::min(predicted_load_[from], p.demand);
  predicted_load_[to] += p.demand;
  p.host = to;
  const u64 queued = lane->queue.size();
  // adopt_lane fails only for a duplicate name, which host_of() excludes
  // cluster-wide.
  t.shed = hosts_[to]->adopt_lane(std::move(lane)).value();
  t.requeued = queued - t.shed;
  return t;
}

void ClusterEngine::maybe_migrate() {
  if (hosts_.size() < 2) return;
  for (size_t s = 0; s < hosts_.size(); ++s) {
    if (health_[s].dead) continue;
    Host& src = *hosts_[s];
    if (src.admission_closed_streak() < options_.migrate_after_pinned_epochs)
      continue;
    // Hysteresis: one decision per pinned streak, whatever it turns out to
    // be, so the streak re-arms instead of re-checking every epoch.
    src.reset_admission_streak();
    const size_t li = src.largest_tiered_lane();
    if (li == Host::npos) continue;  // all profiling / baselines
    const std::string fn = src.lane_at(li)->name;
    // Destination: the least-loaded healthy host other than the source,
    // ties toward the lowest index. A quarantined pick means nothing
    // healthy is left, and a full one that the whole cluster is saturated:
    // migrating would only thrash.
    const size_t dest = pick_host(placement_of(fn).demand, s);
    if (dest == npos || host_quarantined(dest) ||
        predicted_load_[dest] >= hosts_[dest]->fast_budget_bytes())
      continue;

    // Transactional transfer: the source lane stays authoritative — still
    // admitting and serving — until a copy attempt survives to the commit
    // point, so an aborted attempt rolls back by simply not moving
    // anything. kMigrationAbort fires per attempt from the source host's
    // injector; attempts are bounded by the default RetryPolicy, with the
    // backoff accumulated in simulated time.
    FaultInjector& inj = *health_[s].injector;
    RecoveryInfo ledger;
    const bool committed =
        RetryPolicy{}.run(migration_rng_, &ledger, [&] {
          if (inj.should_fire(FaultSite::kMigrationAbort))
            throw Error(ErrorCode::kTransientIo,
                        fn + ": transfer aborted mid-copy");
        }) == RetryStatus::kOk;
    const u32 attempts = ledger.retries + 1;
    if (!committed) {
      // Abandoned: the source keeps the lane (no split ownership, no lane
      // stall — the copy runs off the serving path, so rollback is free).
      // The typed ledger entry is the cluster-level analogue of the
      // recovery ladder exhausting its retries.
      const ServerlessPlatform::ResidentBytes rb =
          src.lane_at(li)->host->resident_bytes(fn);
      migrations_.push_back(MigrationEvent{
          epochs_, fn, src.name(), hosts_[dest]->name(), rb.fast + rb.slow,
          0, MigrationOutcome::kAborted, attempts, ledger.overhead_ns});
      continue;
    }
    const LaneTransfer t = transfer_lane(s, li, dest, ledger.overhead_ns);
    migrations_.push_back(MigrationEvent{
        epochs_, fn, src.name(), hosts_[dest]->name(), t.moved_bytes,
        t.transfer_ns, MigrationOutcome::kCommitted, attempts,
        ledger.overhead_ns});
  }
}

void ClusterEngine::inject_failure_domains() {
  // Without an armed plan no site can ever fire and no breaker can ever
  // observe a degraded epoch: skipping the whole barrier keeps fault-free
  // cluster ledgers bit-identical to the pre-failure-domain behaviour.
  if (!options_.cluster_fault_plan.armed()) return;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    HostHealth& h = health_[i];
    if (h.dead) continue;
    if (h.injector->should_fire(FaultSite::kHostCrash)) {
      fail_over(i);
      continue;
    }
    bool browned = false;
    if (h.injector->should_fire(FaultSite::kHostBrownout)) {
      browned = true;
      ++h.brownouts;
      hosts_[i]->apply_brownout(
          h.injector->stall_ns(FaultSite::kHostBrownout));
      push_health_event(hosts_[i]->name(), HostHealthAction::kBrownout);
    }
    // One breaker observation per epoch (never wall-clock): consecutive
    // browned-out epochs open it, a clean cooldown closes it again.
    const CircuitBreaker::State before = h.breaker.state();
    h.breaker.observe(browned);
    const CircuitBreaker::State after = h.breaker.state();
    if (after == before) continue;
    switch (after) {
      case CircuitBreaker::State::kOpen:
        ++h.quarantines;
        // The fleet arbiter treats a quarantined host's fast-tier budget
        // as withdrawn: warmth flushes, lanes demote, admission closes.
        hosts_[i]->set_budget_withdrawn(true);
        push_health_event(hosts_[i]->name(), HostHealthAction::kQuarantine);
        break;
      case CircuitBreaker::State::kHalfOpen:
        push_health_event(hosts_[i]->name(), HostHealthAction::kProbe);
        break;
      case CircuitBreaker::State::kClosed:
        ++h.readmissions;
        hosts_[i]->set_budget_withdrawn(false);
        push_health_event(hosts_[i]->name(), HostHealthAction::kReadmit);
        break;
    }
  }
}

void ClusterEngine::fail_over(size_t dead_host) {
  Host& dead = *hosts_[dead_host];
  HostHealth& h = health_[dead_host];
  h.dead = true;
  ++hosts_lost_;
  push_health_event(dead.name(), HostHealthAction::kCrash);
  // Re-place the lanes gold-first: gold lanes claim survivor headroom (and
  // the destination's admission-bounded queue slots) before bronze, so any
  // failover shedding lands on bronze. Unclassed fleets sort equal, so the
  // stable sort preserves the historical slot order bit-identically.
  std::vector<size_t> order;
  order.reserve(dead.lane_count());
  for (size_t li = 0; li < dead.lane_count(); ++li)
    if (dead.lane_at(li) != nullptr) order.push_back(li);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return qos_shed_rank(dead.lane_at(a)->qos.cls) >
           qos_shed_rank(dead.lane_at(b)->qos.cls);
  });
  for (size_t li : order) {
    const HostLane* view = dead.lane_at(li);
    const std::string fn = view->name;
    const size_t dst = pick_host(placement_of(fn).demand, dead_host);
    if (dst == npos) {
      // No survivor: every pending request on this lane resolves as
      // kHostLost via abandon_pending() below, and the placement stays on
      // the dead host so enqueue() reports the loss with a typed error
      // instead of queueing into the void.
      const u64 pending = view->queue.size() +
                          (view->requests.size() - view->arrived);
      failovers_.push_back(
          FailoverEvent{epochs_, fn, dead.name(), "", 0, 0, 0, pending});
      continue;
    }
    // Tiered restore from surviving snapshot state — the recovery ladder's
    // happy rung. A corrupted survivor is caught by the same per-invocation
    // ladder on first use (verify -> retry -> degrade -> regenerate), so
    // failover never needs a separate repair path.
    const LaneTransfer t = transfer_lane(dead_host, li, dst, 0);
    ++h.lanes_failed_over;
    failovers_.push_back(FailoverEvent{epochs_, fn, dead.name(),
                                       hosts_[dst]->name(), t.moved_bytes,
                                       t.transfer_ns, t.requeued, t.shed});
  }
  // Lanes that found no survivor shed everything still pending, so each
  // request resolves to exactly one typed outcome and idle() holds.
  dead.abandon_pending();
}

Result<ClusterReport> ClusterEngine::run(int threads) {
  if (threads <= 0) threads = hardware_threads();
  // An epoch runs at most one index per lane, so participants beyond the
  // lane count could only idle.
  LaneExecutor executor(static_cast<int>(
      std::min(static_cast<size_t>(threads), function_count())));
  // Alive hosts with pending work, in host index order.
  const auto live_hosts = [this] {
    std::vector<Host*> live;
    for (size_t i = 0; i < hosts_.size(); ++i)
      if (!health_[i].dead && !hosts_[i]->idle())
        live.push_back(hosts_[i].get());
    return live;
  };

  while (!live_hosts().empty()) {
    // Failure-domain barrier first: crashes and brownouts land at the
    // epoch boundary, before any host steps, in host index order. A crash
    // can move work between hosts, so the stepped set is taken after it.
    inject_failure_domains();
    if (Result<void> stepped = Host::step_epoch(live_hosts(), executor);
        !stepped.ok())
      return {stepped.code(), stepped.message()};
    maybe_migrate();
#ifdef TOSS_CHECKED
    // Barrier conservation: each placement names a live lane on its host
    // and nothing else is live (a lane no survivor adopted stays in its
    // dead host's slots, placement included), and each host's predicted
    // load is exactly the demand placed on it.
    size_t live = 0;
    for (const auto& host : hosts_) live += host->function_count();
    TOSS_ASSERT(live == placements_.size(),
                "cluster lane count disagrees with its placements");
    std::vector<u64> placed(hosts_.size(), 0);
    for (const Placement& p : placements_) {
      TOSS_ASSERT(hosts_[p.host]->lane_host(p.function) != nullptr,
                  "placement names a lane its host does not own");
      placed[p.host] += p.demand;
    }
    TOSS_ASSERT(placed == predicted_load_,
                "predicted load disagrees with the placed demand");
#endif
    ++epochs_;
  }
  return report();
}

ClusterReport ClusterEngine::report() const {
  ClusterReport out;
  out.hosts.reserve(hosts_.size());
  for (size_t i = 0; i < hosts_.size(); ++i) {
    ClusterHostReport hr{hosts_[i]->name(), hosts_[i]->report()};
    // Health rollup: the cluster is the only layer that knows a host's
    // failure-domain history, so it stamps the report here.
    HostHealthRollup& health = hr.report.metrics.health;
    health.lost = health_[i].dead;
    health.quarantined = !health_[i].dead && host_quarantined(i);
    health.brownouts = health_[i].brownouts;
    health.quarantines = health_[i].quarantines;
    health.readmissions = health_[i].readmissions;
    health.lanes_failed_over = health_[i].lanes_failed_over;
    out.hosts.push_back(std::move(hr));
  }
  out.migrations = migrations_;
  out.failovers = failovers_;
  out.health_events = health_events_;
  out.hosts_lost = hosts_lost_;
  out.epochs = epochs_;
  return out;
}

}  // namespace toss
