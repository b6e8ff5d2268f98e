#include "spine/workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "spine/replay.hpp"
#include "toss.hpp"

using namespace toss;

namespace spine {
namespace {

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Metric catalogue

/// Replay spans, in report order; each reports calls/ns per invocation and
/// its share of the measured run's host time per invocation.
const char* const kSpanNames[] = {
    "workloads.invoke",     "vmm.drop_caches",
    "vmm.boot",             "vmm.plan_restore",
    "vmm.restore",          "vmm.execute",
    "vmm.apply_writes",     "vmm.take_snapshot",
    "vmm.fetch_verify",     "vmm.oracle_hash",
    "vmm.oracle_authority_hash", "trace.from_trace",
    "damon.monitor",        "core.unified_add",
    "core.analyze_pattern", "core.tier_snapshot",
    "platform.predicted_tier_demand", "platform.add",
    "platform.run",
};

/// Spans that also report p50/p99 ns per call.
const char* const kTailSpans[] = {"vmm.execute", "vmm.restore",
                                  "core.analyze_pattern"};

std::vector<MetricDef> build_per_layer() {
  static std::vector<std::string> storage;  // owns the composed names
  std::vector<std::pair<std::string, const char*>> defs;
  for (const char* span : kSpanNames) {
    defs.emplace_back(std::string(span) + ".calls_per_inv", "calls/inv");
    defs.emplace_back(std::string(span) + ".ns_per_inv", "ns/inv");
    defs.emplace_back(std::string(span) + ".share", "fraction");
  }
  for (const char* span : kTailSpans) {
    defs.emplace_back(std::string(span) + ".p50_ns", "ns");
    defs.emplace_back(std::string(span) + ".p99_ns", "ns");
  }
  const std::pair<const char*, const char*> fixed[] = {
      {"core.analyze_pattern.ns_per_lane", "ns/lane"},
      {"core.tier_snapshot.ns_per_lane", "ns/lane"},
      {"vmm.execute.ns_per_touched_page", "ns/page"},
      {"platform.self.ns_per_inv", "ns/inv"},
      {"vmm.touched_pages_per_inv", "pages/inv"},
      {"vmm.minor_faults_per_inv", "faults/inv"},
      {"vmm.major_faults_per_inv", "faults/inv"},
      {"vmm.cow_faults_per_inv", "faults/inv"},
      {"vmm.disk_pages_per_inv", "pages/inv"},
      {"vmm.mappings_per_restore", "mappings"},
      {"vmm.slow_access_fraction", "fraction"},
      {"sim.fault_ms_mean", "ms"},
      {"sim.mem_ms_mean", "ms"},
      {"sim.damon_overhead_ms_mean", "ms"},
      {"platform.epochs", "count"},
      {"platform.run_ns_per_epoch", "ns/epoch"},
      {"platform.arbiter.demotions", "count"},
      {"platform.arbiter.promotions", "count"},
      {"platform.arbiter.keepalive_evictions", "count"},
      {"platform.arbiter.admission_closures", "count"},
      {"platform.migrations", "count"},
  };
  for (const auto& [name, unit] : fixed) defs.emplace_back(name, unit);
  for (size_t c = 0; c < kShedCauseCount; ++c)
    defs.emplace_back(std::string("platform.shed.") +
                          shed_cause_json_key(static_cast<ShedCause>(c)),
                      "count");
  const std::pair<const char*, const char*> tail[] = {
      {"platform.deadline_misses", "count"},
      {"platform.queue_peak", "count"},
      {"platform.failed_fraction", "fraction"},
      {"trace.replay_mismatches", "count"},
      {"trace.replayed_requests", "count"},
      {"trace.overhead_fraction", "fraction"},
      {"trace.span_coverage", "fraction"},
      {"trace.valid", "bool"},
  };
  for (const auto& [name, unit] : tail) defs.emplace_back(name, unit);

  storage.clear();
  storage.reserve(defs.size());
  std::vector<MetricDef> out;
  for (const auto& [name, unit] : defs) {
    storage.push_back(name);
    out.push_back({storage.back().c_str(), unit});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small helpers

/// FNV-1a over the simulated ledger; equal digests = identical ledgers.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 1099511628211ull;
  }
  void add(const std::string& text) {
    for (char c : text) add(c);
    add(text.size());
  }
  void add(const InvocationOutcome& o) {
    add(o.result.setup.setup_ns);
    add(o.result.exec.exec_ns);
    add(o.charge);
    add(static_cast<int>(o.toss_phase));
    add(o.recovery.memory_hash);
  }
  u64 value() const { return hash_; }

 private:
  u64 hash_ = 1469598103934665603ull;
};

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(u64 start_ns) {
  return static_cast<double>(wall_ns() - start_ns) / 1e9;
}

/// One lane's registration inputs (kept so the replay can rebuild it).
struct LaneDef {
  FunctionSpec spec;
  TossOptions toss;
  u64 seed = 0;
  QosClass qos = QosClass::kNone;

  FunctionRegistration registration() const {
    FunctionRegistration reg(spec);
    reg.policy(PolicyKind::kToss).toss(toss).seed(seed);
    if (qos != QosClass::kNone) reg.qos(qos);
    return reg;
  }
};

/// `count` lanes cycling the ten Table-I functions; names get "#i".
std::vector<LaneDef> table1_lanes(size_t count, const TossOptions& toss,
                                  u64 seed) {
  const std::vector<FunctionSpec> table1 = workloads::all_functions();
  std::vector<LaneDef> lanes;
  for (size_t i = 0; i < count; ++i) {
    LaneDef lane;
    lane.spec = table1[i % table1.size()];
    lane.spec.name += "#" + std::to_string(i);
    lane.toss = toss;
    lane.seed = mix_seed(seed, "lane" + std::to_string(i));
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

/// Round-robin inputs I-IV with request seeds from (seed, lane, part).
std::vector<Request> lane_requests(size_t n, u64 seed, size_t lane,
                                   u64 part) {
  return RequestGenerator::round_robin(
      n, mix_seed(mix_seed(seed, "requests" + std::to_string(lane)), part));
}

// ---------------------------------------------------------------------------
// Simulated outcome summary (exact, from outcomes; never from histograms)

struct SimSummary {
  std::vector<double> latency_ms;  ///< setup + exec of served requests
  double charge = 0;               ///< $ over served requests
  u64 offered = 0;
  u64 on_time = 0;   ///< served within deadline (or served, no deadline)
  u64 shed = 0;
  u64 incomplete = 0;  ///< exhausted every recovery rung
  double fast_bytes = 0;

  void serve(const InvocationOutcome& o) {
    latency_ms.push_back(o.result.total_ns() / 1e6);
    charge += o.charge;
    if (!o.recovery.completed) ++incomplete;
  }
};

void put_sim_metrics(SimSummary sim, Values& v, std::vector<std::string>& notes) {
  std::sort(sim.latency_ms.begin(), sim.latency_ms.end());
  const size_t n = sim.latency_ms.size();
  const double tail = tail_percentile_for(n);
  v["sim_latency_p50_ms"] = percentile(sim.latency_ms, 50);
  v["sim_latency_p99_ms"] = percentile(sim.latency_ms, tail);
  v["sim_charge_per_inv_uusd"] = n ? sim.charge / static_cast<double>(n) * 1e6 : 0;
  v["sim_fast_tier_mib"] = sim.fast_bytes / static_cast<double>(kMiB);
  const double offered = static_cast<double>(std::max<u64>(sim.offered, 1));
  v["sim_goodput_fraction"] = static_cast<double>(sim.on_time) / offered;
  const u64 failed = sim.shed + sim.incomplete;
  v["served_fraction"] = 1.0 - static_cast<double>(failed) / offered;
  v["platform.failed_fraction"] = static_cast<double>(failed) / offered;
  char line[160];
  std::snprintf(line, sizeof line,
                "sim latency samples: %zu (tail metric is p%g: highest "
                "percentile with >= 10 samples beyond it)",
                n, tail);
  notes.emplace_back(line);
}

/// Simulated per-layer counts, exact from ExecutionResult / SetupResult.
void put_sim_counts(const std::vector<const InvocationOutcome*>& outs, Values& v) {
  if (outs.empty()) return;
  double touched = 0, minor = 0, major = 0, cow = 0, disk = 0, mappings = 0;
  double slow = 0, accesses = 0, fault = 0, mem = 0, damon = 0;
  for (const InvocationOutcome* o : outs) {
    const ExecutionResult& e = o->result.exec;
    touched += static_cast<double>(e.touched_pages);
    minor += static_cast<double>(e.minor_faults);
    major += static_cast<double>(e.major_faults);
    cow += static_cast<double>(e.cow_faults);
    disk += static_cast<double>(e.disk_pages);
    mappings += static_cast<double>(o->result.setup.mappings);
    slow += static_cast<double>(e.slow_accesses);
    accesses += static_cast<double>(e.total_accesses);
    fault += e.fault_ns;
    mem += e.mem_ns;
    damon += e.profiling_overhead_ns;
  }
  const double n = static_cast<double>(outs.size());
  v["vmm.touched_pages_per_inv"] = touched / n;
  v["vmm.minor_faults_per_inv"] = minor / n;
  v["vmm.major_faults_per_inv"] = major / n;
  v["vmm.cow_faults_per_inv"] = cow / n;
  v["vmm.disk_pages_per_inv"] = disk / n;
  v["vmm.mappings_per_restore"] = mappings / n;
  v["vmm.slow_access_fraction"] = accesses > 0 ? slow / accesses : 0;
  v["sim.fault_ms_mean"] = fault / n / 1e6;
  v["sim.mem_ms_mean"] = mem / n / 1e6;
  v["sim.damon_overhead_ms_mean"] = damon / n / 1e6;
}

/// Correctness gate accumulator.
struct Gates {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Every outcome's page-version oracle must agree.
void check_oracle(Gates& gates, const std::string& lane,
                  const std::vector<InvocationOutcome>& outcomes) {
  for (size_t i = 0; i < outcomes.size(); ++i)
    if (outcomes[i].recovery.memory_hash != outcomes[i].recovery.expected_hash) {
      gates.check(false, lane + ": memory_hash != expected_hash at request " +
                             std::to_string(i));
      return;
    }
}

/// Exactly-once accounting for one lane: every request sent resolves to
/// one served or shed outcome, and the admission ledger balances.
void check_exactly_once(Gates& gates, const FunctionReport& f, size_t sent) {
  const OverloadStats& o = f.overload;
  gates.check(f.stats.invocations + o.total_shed() == sent,
              f.name + ": served + shed != requests sent");
  gates.check(f.outcomes.size() == f.stats.invocations,
              f.name + ": outcome count != invocations");
  if (o.offered > 0)
    gates.check(o.offered == o.completed + o.total_shed(),
                f.name + ": offered != completed + shed");
}

// ---------------------------------------------------------------------------
// Layer replay bookkeeping

/// Spans aggregated over the requests of the measured phase.
struct SpanTotals {
  std::vector<double> ns;     ///< per span name id
  std::vector<double> calls;  ///< per span name id
  std::vector<std::vector<double>> per_call;  ///< durations, for p50/p99
};

/// Sum spans by name. Only spans whose request id is in the measured set
/// (`measured(request)`) count toward per-invocation totals; per-call
/// samples of `core.analyze_pattern` span the whole replay (it runs in
/// set-up on some workloads).
template <typename Pred>
SpanTotals total_spans(const Tracer& tracer, Pred measured) {
  SpanTotals t;
  const size_t names = tracer.name_count();
  t.ns.assign(names, 0);
  t.calls.assign(names, 0);
  t.per_call.assign(names, {});
  for (const Span& s : tracer.spans()) {
    const bool in = measured(s.request);
    if (in) {
      t.ns[s.name] += static_cast<double>(s.dur_ns);
      t.calls[s.name] += 1;
    }
    if (in || tracer.name(s.name) == "core.analyze_pattern")
      t.per_call[s.name].push_back(static_cast<double>(s.dur_ns));
  }
  return t;
}

/// Fill the span metrics of a replayed run. `run_ns_per_inv` is the
/// untraced measured run's host time per invocation (the share base).
void put_span_metrics(const Tracer& tracer, const SpanTotals& t,
                      double invocations, double run_ns_per_inv,
                      double lanes, Values& v) {
  double children = 0;
  for (size_t id = 0; id < tracer.name_count(); ++id) {
    const std::string& name = tracer.name(id);
    const double ns_per_inv = t.ns[id] / invocations;
    v[name + ".calls_per_inv"] = t.calls[id] / invocations;
    v[name + ".ns_per_inv"] = ns_per_inv;
    v[name + ".share"] = run_ns_per_inv > 0 ? ns_per_inv / run_ns_per_inv : 0;
    std::vector<double> calls = t.per_call[id];
    std::sort(calls.begin(), calls.end());
    v[name + ".p50_ns"] = percentile(calls, 50);
    v[name + ".p99_ns"] = percentile(calls, 99);
    if (name == "core.analyze_pattern" || name == "core.tier_snapshot") {
      // Step III/IV runs once per lane, in set-up on tiered_steady.
      double all = 0;
      for (const Span& s : tracer.spans())
        if (s.name == id) all += static_cast<double>(s.dur_ns);
      v[name + ".ns_per_lane"] = all / lanes;
    }
    // Direct children of the per-request root make up the covered time.
    if (name != "replay.handle" && !name.starts_with("platform."))
      children += ns_per_inv;
  }
  v["trace.span_coverage"] = run_ns_per_inv > 0 ? children / run_ns_per_inv : 0;
  v["platform.self.ns_per_inv"] = run_ns_per_inv - children;
  const double root = v["replay.handle.ns_per_inv"];
  v["trace.overhead_fraction"] =
      run_ns_per_inv > 0 ? root / run_ns_per_inv - 1.0 : 0;
}

/// Host throughput of the measured phase. Where samples (drains or phases)
/// differ in their mix of functions and steps, a median of per-sample rates
/// would depend on that mix rather than on host speed, so the rate pools
/// every invocation over every measured second. Where every sample repeats
/// the same work (profiling_cold's rounds), the median per-sample rate is
/// used instead: it shrugs off the bursts in which a shared host runs the
/// memory-bound page work up to 30% slower.
struct Throughput {
  double invocations = 0;
  double seconds = 0;
  std::vector<double> rates;  ///< per sample
  bool identical_samples = false;

  void add(double served, double s) {
    invocations += served;
    seconds += s;
    rates.push_back(served / s);
  }
  size_t samples() const { return rates.size(); }
  void put(Values& v, std::vector<std::string>& notes) const {
    std::vector<double> r = rates;
    std::sort(r.begin(), r.end());
    v["invocations_per_s"] =
        identical_samples ? median(r) : invocations / seconds;
    char line[200];
    std::snprintf(line, sizeof line,
                  "measured: %.0f invocations in %.2f s over %zu samples; "
                  "per-sample rate p10 %.1f p50 %.1f p90 %.1f /s",
                  invocations, seconds, r.size(), percentile(r, 10),
                  percentile(r, 50), percentile(r, 90));
    notes.emplace_back(line);
  }
};

// ---------------------------------------------------------------------------
// PlatformEngine fleets (tiered_steady, profiling_cold)

/// Trace mode's layer replay of an engine fleet (spine/replay.hpp). Each
/// drain is replayed right after the engine serves it, so the measured and
/// the replayed host time see the same machine conditions.
struct DrainReplayer {
  Tracer tracer;
  ReplaySpans spans{tracer};
  SystemConfig cfg = SystemConfig::paper_default();
  std::vector<std::unique_ptr<LaneReplay>> lanes;
  std::vector<std::vector<ReplayStep>> steps;
  /// Requests replayed before this is set are set-up, not measured.
  bool measuring = false;
  u64 replay_ns = 0;  ///< host time spent replaying, spans included

  explicit DrainReplayer(const std::vector<LaneDef>& defs) : steps(defs.size()) {
    for (const LaneDef& l : defs)
      lanes.push_back(std::make_unique<LaneReplay>(cfg, l.spec, l.toss, l.seed));
  }

  /// Replay stream slice [first, second) of every lane, lane by lane (the
  /// order the one-worker engine serves a drain in).
  void replay(const std::vector<std::vector<Request>>& sent,
              const std::vector<std::pair<size_t, size_t>>& slices) {
    const u64 start = wall_ns();
    for (size_t i = 0; i < slices.size(); ++i)
      for (size_t k = slices[i].first; k < slices[i].second; ++k) {
        // Request id: lane in the high bits, stream index in the low ones;
        // bit 63 marks set-up requests.
        tracer.set_request((static_cast<u64>(i) << 32) | k |
                           (measuring ? 0 : (1ull << 63)));
        steps[i].push_back(
            lanes[i]->handle(sent[i][k].input, sent[i][k].seed, tracer, spans));
      }
    replay_ns += wall_ns() - start;
  }
};

/// One engine fleet and every request sent to each of its lanes.
struct EngineFleet {
  std::vector<LaneDef> lanes;
  std::unique_ptr<PlatformEngine> engine;
  std::vector<std::vector<Request>> sent;
  EngineReport report;
  DrainReplayer* replayer;  ///< trace mode only

  EngineFleet(std::vector<LaneDef> defs,
              const std::vector<std::vector<Request>>& initial,
              DrainReplayer* replay = nullptr)
      : lanes(std::move(defs)), sent(lanes.size()), replayer(replay) {
    EngineOptions opts;
    opts.threads = 1;
    opts.keep_outcomes = true;
    engine = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                              PricingPlan{}, opts);
    for (size_t i = 0; i < lanes.size(); ++i)
      engine->add(lanes[i].registration(), {}).value();
    drain(initial);
  }

  /// Append `batch[i]` to lane i (empty = nothing) and serve it all.
  /// Returns the host seconds the drain took.
  double drain(const std::vector<std::vector<Request>>& batch) {
    RequestBatch rb;
    std::vector<std::pair<size_t, size_t>> slices(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
      slices[i] = {sent[i].size(), sent[i].size() + batch[i].size()};
      if (batch[i].empty()) continue;
      sent[i].insert(sent[i].end(), batch[i].begin(), batch[i].end());
      rb.push_back({lanes[i].spec.name, batch[i]});
    }
    const u64 start = wall_ns();
    report = engine->drain(rb, 1).value();
    const double seconds = seconds_since(start);
    if (replayer != nullptr) replayer->replay(sent, slices);
    return seconds;
  }

  TossPhase phase(size_t lane) const {
    return engine->toss_state(lanes[lane].spec.name)->phase();
  }

  double fast_bytes() const {
    double total = 0;
    for (const LaneDef& l : lanes)
      total += static_cast<double>(
          engine->lane_host(l.spec.name)->resident_bytes(l.spec.name).fast);
    return total;
  }

  /// Digest of every outcome up to now, lane by lane.
  u64 digest() const {
    Digest d;
    for (const FunctionReport& f : report.functions) {
      d.add(f.name);
      for (const InvocationOutcome& o : f.outcomes) d.add(o);
    }
    return d.value();
  }

  void check(Gates& gates) const {
    for (size_t i = 0; i < report.functions.size(); ++i) {
      check_exactly_once(gates, report.functions[i], sent[i].size());
      check_oracle(gates, report.functions[i].name, report.functions[i].outcomes);
    }
  }
};

/// Sim summary over outcomes [first[i], end) of every lane.
SimSummary summarize(const EngineFleet& fleet, const std::vector<size_t>& first,
                     std::vector<const InvocationOutcome*>* served) {
  SimSummary sim;
  for (size_t i = 0; i < fleet.report.functions.size(); ++i) {
    const auto& outs = fleet.report.functions[i].outcomes;
    for (size_t k = first[i]; k < outs.size(); ++k) {
      sim.serve(outs[k]);
      if (served) served->push_back(&outs[k]);
    }
  }
  sim.offered = sim.latency_ms.size();
  sim.on_time = sim.offered - sim.incomplete;
  sim.fast_bytes = fleet.fast_bytes();
  return sim;
}

std::vector<size_t> outcome_counts(const EngineFleet& fleet) {
  std::vector<size_t> counts;
  for (const FunctionReport& f : fleet.report.functions)
    counts.push_back(f.outcomes.size());
  return counts;
}

/// Trace mode's per-layer metrics for an engine fleet whose drains were
/// replayed as they ran: check the replay against the measured outcomes,
/// fill the span metrics and write the Chrome trace.
void trace_engine(const Options& opt, const EngineFleet& fleet,
                  const DrainReplayer& replayer, double measured_invocations,
                  double measured_seconds, double drains, Values& v,
                  std::vector<std::string>& notes) {
  const Tracer& tracer = replayer.tracer;
  size_t mismatches = 0, replayed = 0;
  bool memory_ok = true;
  for (size_t i = 0; i < replayer.steps.size(); ++i) {
    mismatches += count_mismatches(fleet.report.functions[i].outcomes,
                                   replayer.steps[i]);
    replayed += replayer.steps[i].size();
    for (const ReplayStep& step : replayer.steps[i])
      memory_ok = memory_ok && step.memory_ok;
  }
  if (!memory_ok) notes.emplace_back("replay: a replayed oracle hash disagreed");
  const double replay_s = static_cast<double>(replayer.replay_ns) / 1e9;
  const SpanTotals totals = total_spans(
      tracer, [](u64 request) { return (request >> 63) == 0; });
  const double run_ns_per_inv = measured_seconds * 1e9 / measured_invocations;
  put_span_metrics(tracer, totals, measured_invocations, run_ns_per_inv,
                   static_cast<double>(fleet.lanes.size()), v);
  v["platform.run.calls_per_inv"] = drains / measured_invocations;
  v["platform.run.ns_per_inv"] = run_ns_per_inv;
  v["platform.run.share"] = 1.0;
  const double touched = v["vmm.touched_pages_per_inv"] * measured_invocations;
  v["vmm.execute.ns_per_touched_page"] =
      touched > 0 ? totals.ns[replayer.spans.execute] / touched : 0;
  v["trace.replay_mismatches"] = static_cast<double>(mismatches);
  v["trace.replayed_requests"] = static_cast<double>(replayed);
  v["trace.valid"] = mismatches == 0 ? 1 : 0;
  char line[200];
  std::snprintf(line, sizeof line,
                "replay: %zu requests in %.2f s, %zu mismatches%s", replayed,
                replay_s, mismatches,
                mismatches ? " -> per-layer numbers INVALID" : "");
  notes.emplace_back(line);
  if (!opt.trace_path.empty()) {
    if (write_chrome_trace(tracer, opt.workload, opt.trace_path))
      notes.push_back("chrome trace: " + opt.trace_path);
    else
      notes.push_back("chrome trace: cannot write " + opt.trace_path);
  }
}

// ---- tiered_steady --------------------------------------------------------

void tiered_steady(const Options& opt, Report& rep, Values& v, Gates& gates) {
  const bool tiny = opt.scale == Scale::kTiny;
  const size_t kLanes = tiny ? 4 : 32;
  const size_t kWarmup = 8;  // requests per lane in the first warm-up drain
  const size_t kTopUp = 4;    // per extra warm-up drain for untiered lanes
  // Requests per lane per measured drain; short drains let the measured
  // phase stop close to --seconds.
  const size_t kBatch = 2;
  // The simulated metrics cover the first kSimDrains drains: enough served
  // requests for an exact p99, independent of the host's speed.
  const size_t kSimDrains = tiny ? 1 : 16;
  const size_t kSetups = opt.trace || tiny ? 1 : 3;
  TossOptions toss;
  toss.stable_invocations = 3;
  toss.max_profiling_invocations = 6;
  // The fleet and its warm-up are fixed, so every seed measures the same
  // tiered placements; --seed draws the measured requests. Seeding the
  // warm-up too moves Step III's decisions, and with them the simulated
  // tail and fast-tier footprint, by ~8% from seed to seed.
  const u64 kFleetSeed = 1;

  const std::vector<LaneDef> defs = table1_lanes(kLanes, toss, kFleetSeed);
  std::vector<double> setup_s;
  std::unique_ptr<DrainReplayer> replayer;
  std::unique_ptr<EngineFleet> fleet;
  u64 part = 0;
  for (size_t s = 0; s < kSetups; ++s) {
    fleet.reset();
    if (opt.trace) replayer = std::make_unique<DrainReplayer>(defs);
    const u64 start = wall_ns();
    std::vector<std::vector<Request>> warm(kLanes);
    for (size_t i = 0; i < kLanes; ++i)
      warm[i] = lane_requests(kWarmup, kFleetSeed, i, 0);
    fleet = std::make_unique<EngineFleet>(defs, warm, replayer.get());
    part = 1;
    for (int round = 0; round < 10; ++round, ++part) {
      std::vector<std::vector<Request>> topup(kLanes);
      bool any = false;
      for (size_t i = 0; i < kLanes; ++i)
        if (fleet->phase(i) != TossPhase::kTiered) {
          topup[i] = lane_requests(kTopUp, kFleetSeed, i, part);
          any = true;
        }
      if (!any) break;
      fleet->drain(topup);
    }
    setup_s.push_back(seconds_since(start));
  }
  for (size_t i = 0; i < kLanes; ++i)
    gates.check(fleet->phase(i) == TossPhase::kTiered,
                fleet->lanes[i].spec.name + " not kTiered before measuring");

  // Measured phase: equal batches per lane, drained until time is up.
  if (replayer) replayer->measuring = true;
  const std::vector<size_t> measured_from = outcome_counts(*fleet);
  Throughput rate;
  double measured_s = 0;
  size_t sim_invocations = 0, not_tiered = 0;
  u64 digest = 0;
  const u64 measure_start = wall_ns();
  do {
    std::vector<std::vector<Request>> batch(kLanes);
    for (size_t i = 0; i < kLanes; ++i)
      batch[i] = lane_requests(kBatch, opt.seed, i, part);
    ++part;
    const double s = fleet->drain(batch);
    rate.add(static_cast<double>(kLanes * kBatch), s);
    rep.attempted += kLanes * kBatch;
    if (rate.samples() <= kSimDrains) measured_s += s;
    if (rate.samples() == kSimDrains) {
      std::vector<const InvocationOutcome*> outs;
      put_sim_metrics(summarize(*fleet, measured_from, &outs), v, rep.notes);
      put_sim_counts(outs, v);
      sim_invocations = outs.size();
      for (const InvocationOutcome* o : outs)
        not_tiered += o->toss_phase != TossPhase::kTiered;
      digest = fleet->digest();
    }
  } while (rate.samples() < kSimDrains ||
           (!opt.trace && seconds_since(measure_start) < opt.seconds));
  fleet->check(gates);

  rep.notes.push_back("ledger digest: " + hex(digest));
  rep.notes.push_back("invocations outside kTiered in the first " +
                      std::to_string(kSimDrains) + ": " +
                      std::to_string(not_tiered));
  v["setup_s"] = median(setup_s);
  rate.put(v, rep.notes);
  // Trace mode stops after the simulated set, which the replay covers.
  if (opt.trace)
    trace_engine(opt, *fleet, *replayer, static_cast<double>(sim_invocations),
                 measured_s, static_cast<double>(kSimDrains), v, rep.notes);
}

// ---- profiling_cold --------------------------------------------------------

void profiling_cold(const Options& opt, Report& rep, Values& v, Gates& gates) {
  const bool tiny = opt.scale == Scale::kTiny;
  // Three lanes per Table-I function: a round (one fresh fleet served to
  // kTiered) takes ~5 s, so a run measures several identical rounds and
  // reports their median rate.
  const size_t kLanes = tiny ? 4 : 30;
  const size_t kTail = 2;  // tiered requests each stream ends with
  // Set-up is short here (~0.1 s), so the first round builds its fleet
  // this often for a steady median; later rounds build it once.
  const size_t kSetups = opt.trace || tiny ? 1 : 15;
  // Every lane profiles exactly 12 times (stability window = budget). With
  // a shorter window, when the unified pattern settles depends on the
  // seed, and that moves the mix of profiled and tiered invocations, the
  // mean simulated charge by ~14% and the median latency by ~8%.
  TossOptions toss;
  toss.stable_invocations = 12;
  toss.max_profiling_invocations = 12;
  const size_t kCap = 1 + toss.max_profiling_invocations + kTail + 1;
  // The fleet is fixed, as on the other workloads, so every seed serves the
  // same guests; --seed draws the requests.
  const u64 kFleetSeed = 1;

  std::vector<double> setup_s;
  Throughput rate;
  rate.identical_samples = true;
  u64 first_digest = 0;
  do {
    // Set-up: a fresh fleet whose first request per lane is Step I (the
    // last one built is measured).
    std::vector<std::vector<Request>> streams(kLanes), first(kLanes);
    for (size_t i = 0; i < kLanes; ++i) {
      streams[i] = lane_requests(kCap, opt.seed, i, 0);
      first[i] = {streams[i][0]};
    }
    const std::vector<LaneDef> defs = table1_lanes(kLanes, toss, kFleetSeed);
    std::unique_ptr<DrainReplayer> replayer;
    std::unique_ptr<EngineFleet> built;
    const size_t builds = rate.samples() == 0 ? kSetups : 1;
    for (size_t s = 0; s < builds; ++s) {
      built.reset();
      if (opt.trace) replayer = std::make_unique<DrainReplayer>(defs);
      const u64 start = wall_ns();
      built = std::make_unique<EngineFleet>(defs, first, replayer.get());
      setup_s.push_back(seconds_since(start));
    }
    EngineFleet& fleet = *built;
    if (replayer) replayer->measuring = true;

    // Measured: one request per lane per drain until the lane has served
    // kTail requests in kTiered.
    const std::vector<size_t> measured_from = outcome_counts(fleet);
    double measured_s = 0;
    size_t drains = 0, invocations = 0, profiled = 0;
    for (;;) {
      std::vector<std::vector<Request>> batch(kLanes);
      bool any = false;
      for (size_t i = 0; i < kLanes; ++i) {
        size_t tiered = 0;
        for (const InvocationOutcome& o : fleet.report.functions[i].outcomes)
          tiered += o.toss_phase == TossPhase::kTiered;
        const size_t next = fleet.sent[i].size();
        if (tiered >= kTail || next >= kCap) continue;
        batch[i] = {streams[i][next]};
        any = true;
      }
      if (!any) break;
      measured_s += fleet.drain(batch);
      ++drains;
    }
    for (size_t i = 0; i < kLanes; ++i) {
      const auto& outs = fleet.report.functions[i].outcomes;
      invocations += outs.size() - measured_from[i];
      for (size_t k = measured_from[i]; k < outs.size(); ++k)
        profiled += outs[k].toss_phase == TossPhase::kProfiling;
      gates.check(fleet.phase(i) == TossPhase::kTiered,
                  fleet.lanes[i].spec.name + " did not tier within " +
                      std::to_string(kCap) + " requests");
    }
    rate.add(static_cast<double>(invocations), measured_s);
    rep.attempted += invocations;
    fleet.check(gates);

    const u64 digest = fleet.digest();
    if (rate.samples() > 1) {
      gates.check(digest == first_digest, "round ledger digest differs");
      continue;
    }
    // First round: the simulated metrics, the digest and (trace mode) the
    // replay.
    first_digest = digest;
    std::vector<const InvocationOutcome*> outs;
    put_sim_metrics(summarize(fleet, measured_from, &outs), v, rep.notes);
    put_sim_counts(outs, v);
    char line[160];
    std::snprintf(line, sizeof line,
                  "measured invocations: %zu, in Step II: %.1f%%", invocations,
                  100.0 * static_cast<double>(profiled) /
                      static_cast<double>(invocations));
    rep.notes.emplace_back(line);
    if (opt.trace)
      trace_engine(opt, fleet, *replayer, static_cast<double>(invocations),
                   measured_s, static_cast<double>(drains), v, rep.notes);
  } while (!opt.trace && rate.seconds < opt.seconds);

  rep.notes.push_back("ledger digest: " + hex(first_digest));
  rate.put(v, rep.notes);
  v["setup_s"] = median(setup_s);
}

// ---- cluster_pressure -------------------------------------------------------

/// The lane named `name` on whichever host owns it now.
const HostLane* find_lane(const ClusterEngine& cluster, const std::string& name) {
  for (size_t h = 0; h < cluster.host_count(); ++h) {
    const Host& host = cluster.host_at(h);
    for (size_t i = 0; i < host.lane_count(); ++i)
      if (const HostLane* lane = host.lane_at(i); lane && lane->name == name)
        return lane;
  }
  return nullptr;
}

/// Digest of the cluster's determinism-contract fields (the ones
/// cluster_ledgers_equal compares): migrations, per-host arbiter events,
/// shed events, overload stats and every outcome.
u64 cluster_digest(const ClusterReport& r) {
  Digest d;
  d.add(r.epochs);
  d.add(r.hosts_lost);
  for (const MigrationEvent& m : r.migrations) {
    d.add(m.epoch);
    d.add(m.function);
    d.add(m.from_host);
    d.add(m.to_host);
    d.add(m.moved_bytes);
    d.add(m.transfer_ns);
  }
  for (const ClusterHostReport& h : r.hosts) {
    d.add(h.host);
    for (const ArbiterEvent& e : h.report.arbiter.events) {
      d.add(e.epoch);
      d.add(e.function);
      d.add(static_cast<int>(e.action));
      d.add(e.rung);
      d.add(e.resident_bytes);
    }
    for (const FunctionReport& f : h.report.functions) {
      d.add(f.name);
      d.add(f.overload.offered);
      d.add(f.overload.completed);
      d.add(f.overload.shed);
      d.add(f.overload.deadline_misses);
      for (const ShedEvent& e : f.shed_events) {
        d.add(e.request_index);
        d.add(static_cast<int>(e.cause));
        d.add(e.sim_ns);
      }
      for (const InvocationOutcome& o : f.outcomes) d.add(o);
    }
  }
  return d.value();
}

/// What the cluster served between two of its reports: the simulated
/// summary, the served outcomes (copied), and the shedding counters.
struct ClusterDelta {
  SimSummary sim;
  std::vector<InvocationOutcome> served;
  std::vector<const InvocationOutcome*> outs;  ///< into `served`
  std::array<u64, kShedCauseCount> shed{};
  u64 deadline_misses = 0;
  u64 queue_peak = 0;
};

ClusterDelta cluster_delta(const ClusterEngine& cluster,
                           const ClusterReport& from, const ClusterReport& to) {
  ClusterDelta d;
  for (const ClusterHostReport& h : to.hosts)
    for (const FunctionReport& f : h.report.functions) {
      const FunctionReport* b = from.find(f.name);
      const OverloadStats& o = f.overload;
      const OverloadStats& w = b->overload;
      d.sim.offered += o.offered - w.offered;
      d.sim.on_time += (o.completed - w.completed) -
                       (o.deadline_misses - w.deadline_misses);
      d.sim.shed += o.total_shed() - w.total_shed();
      for (size_t c = 0; c < kShedCauseCount; ++c) d.shed[c] += o.shed[c] - w.shed[c];
      d.deadline_misses += o.deadline_misses - w.deadline_misses;
      d.queue_peak = std::max<u64>(d.queue_peak, o.queue_peak);
      for (size_t k = b->outcomes.size(); k < f.outcomes.size(); ++k) {
        d.sim.serve(f.outcomes[k]);
        d.served.push_back(f.outcomes[k]);
      }
      d.sim.fast_bytes += static_cast<double>(
          find_lane(cluster, f.name)->host->resident_bytes(f.name).fast);
    }
  for (const InvocationOutcome& o : d.served) d.outs.push_back(&o);
  return d;
}

void cluster_pressure(const Options& opt, Report& rep, Values& v, Gates& gates) {
  const bool tiny = opt.scale == Scale::kTiny;
  const size_t kHosts = 4;
  const int kThreads = 1;
  const size_t kLanes = tiny ? 4 : 32;
  // Set-up requests per lane, all arriving at t=0 so the first epoch admits
  // every one of them (kQueue >= kWarmup) before the arbiter can close
  // admission on lanes that still profile.
  const size_t kWarmup = 8;
  const size_t kQueue = 8;  // bounded lane queue
  const size_t kSettle = 3;
  const size_t kMeasured = tiny ? 8 : 48;  // open-loop requests per lane
  const double kLoad = 2.5;    // offered rate / simulated service rate
  const double kDeadline = 4;  // relative deadline, in service times
  const double kBudget = 0.7;  // per-host budget / mean predicted demand
  const size_t kSetups = opt.trace || tiny ? 1 : 3;
  const u64 kSimPhases = tiny ? 1 : 3;
  const SystemConfig cfg = SystemConfig::paper_default();
  TossOptions toss;
  toss.stable_invocations = 3;
  toss.max_profiling_invocations = 6;

  // The fleet, its set-up and its arrival schedule are fixed; --seed picks
  // only the measured requests' invocation seeds. The arbiter's decisions
  // are chaotic in the inputs, so a wider seed reach makes the simulated
  // outcomes spread far more from seed to seed than any bound could allow.
  const u64 kFleetSeed = 1;
  std::vector<LaneDef> lanes = table1_lanes(kLanes, toss, kFleetSeed);
  for (size_t i = 0; i < kLanes; ++i)
    lanes[i].qos = i % 2 == 0 ? QosClass::kGold : QosClass::kBronze;
  {
    // The hog: the largest Table-I guest, held in profiling (whole image in
    // DRAM) for its entire stream, as in bench/cluster_scale.
    LaneDef hog;
    hog.spec = workloads::all_functions().back();
    hog.spec.name = "hog";
    hog.toss.stable_invocations = 1u << 20;
    hog.toss.max_profiling_invocations = 1u << 20;
    hog.seed = mix_seed(kFleetSeed, "hog");
    lanes.push_back(std::move(hog));
  }

  Tracer tracer;
  const u32 span_setup = tracer.intern("setup");
  const u32 span_measure = tracer.intern("measured");
  const u32 span_predict = tracer.intern("platform.predicted_tier_demand");
  const u32 span_add = tracer.intern("platform.add");
  const u32 span_run = tracer.intern("platform.run");

  // Set-up: placement prediction, add, closed-loop warm-up and settle.
  const auto set_up = [&] {
    const auto setup_span = tracer.span(span_setup);
    double demand = 0;
    for (size_t i = 0; i < kLanes; ++i) {
      const auto span = tracer.span(span_predict);
      demand += static_cast<double>(
          predicted_fast_demand(cfg, lanes[i].registration()));
    }
    ClusterOptions copts;
    copts.hosts = kHosts;
    copts.migrate_after_pinned_epochs = 1;
    copts.host_options.chunk = 2;
    copts.host_options.max_lane_queue = kQueue;
    copts.host_options.enforce_deadlines = true;
    copts.host_options.arbiter.enabled = true;
    // No keep-alive pool: budget freed by finished lanes goes straight back
    // to demoted ones (promotions) instead of to warm VMs.
    copts.host_options.arbiter.keepalive = false;
    copts.host_options.arbiter.fast_budget_bytes =
        static_cast<u64>(demand / static_cast<double>(kHosts) * kBudget);
    auto cluster = std::make_unique<ClusterEngine>(copts, cfg);
    for (size_t i = 0; i < lanes.size(); ++i) {
      const auto span = tracer.span(span_add);
      cluster->add(lanes[i].registration(),
                   lane_requests(kWarmup, kFleetSeed, i, 0))
          .value();
    }
    {
      const auto span = tracer.span(span_run);
      cluster->run(kThreads).value();
    }
    // Settle: profiling lanes pinned whole guests during warm-up, so the
    // arbiter closed admission. A few closed-loop requests per lane give it
    // the epochs to reopen both class gates before measuring (a gate closed
    // at an epoch start sheds an idle lane's whole stream).
    for (size_t i = 0; i < lanes.size(); ++i) {
      std::vector<Request> reqs = lane_requests(kSettle, kFleetSeed, i, 2);
      const Nanos now = find_lane(*cluster, lanes[i].spec.name)->sim_now;
      for (Request& r : reqs) r.arrival_ns = now;
      cluster->enqueue(lanes[i].spec.name, std::move(reqs)).value();
    }
    const auto span = tracer.span(span_run);
    cluster->run(kThreads).value();
    return cluster;
  };

  std::vector<double> setup_s;
  std::unique_ptr<ClusterEngine> cluster;
  for (size_t s = 0; s < kSetups; ++s) {
    cluster.reset();
    const u64 start = wall_ns();
    cluster = set_up();
    setup_s.push_back(seconds_since(start));
  }

  // Measured phases on the last cluster: each enqueues an open-loop batch
  // past every lane's simulated clock and runs it. The first kSimPhases
  // phases give the simulated metrics and platform counters (a fixed
  // request set); the host rate pools every phase.
  const ClusterReport start = cluster->run(kThreads).value();
  ClusterReport before = start;
  std::vector<size_t> sent(lanes.size(), kWarmup + kSettle);
  Throughput rate;
  double sim_seconds = 0;
  u64 phase = 0;
  do {
    for (size_t i = 0; i < lanes.size(); ++i) {
      const LaneDef& l = lanes[i];
      const FunctionReport* f = before.find(l.spec.name);
      double service = 0;
      for (const InvocationOutcome& o : f->outcomes) service += o.result.total_ns();
      service /= static_cast<double>(std::max<size_t>(f->outcomes.size(), 1));
      const Nanos now = find_lane(*cluster, l.spec.name)->sim_now;
      // Gold streams end halfway through, so the budget they free lets the
      // arbiter promote the bronze lanes it demoted.
      const size_t count = l.qos == QosClass::kGold ? kMeasured / 2 : kMeasured;
      sent[i] += count;
      std::vector<Request> reqs = RequestGenerator::open_loop(
          lane_requests(count, opt.seed, i, 1 + phase), service / kLoad,
          kDeadline * service,
          mix_seed(mix_seed(kFleetSeed, "arrivals" + l.spec.name), phase));
      for (Request& r : reqs) {
        r.arrival_ns += now;
        r.deadline_ns += now;
      }
      cluster->enqueue(l.spec.name, std::move(reqs)).value();
    }
    const u64 measure_start = wall_ns();
    ClusterReport report;
    {
      const auto measure_span = tracer.span(span_measure);
      const auto span = tracer.span(span_run);
      report = cluster->run(kThreads).value();
    }
    const double measured_s = seconds_since(measure_start);
    const ClusterDelta delta = cluster_delta(*cluster, before, report);
    rate.add(static_cast<double>(delta.outs.size()), measured_s);
    rep.attempted += delta.sim.offered;
    rep.failed += delta.sim.incomplete;
    if (phase < kSimPhases) sim_seconds += measured_s;

    if (phase + 1 == kSimPhases) {
      rep.notes.push_back("ledger digest: " + hex(cluster_digest(report)));
      const ClusterDelta d = cluster_delta(*cluster, start, report);
      put_sim_metrics(d.sim, v, rep.notes);
      put_sim_counts(d.outs, v);
      // Arbiter and migration ledgers count the simulated set only.
      const auto count = [&](u64 ArbiterReport::*field) {
        u64 total = 0;
        for (const ClusterHostReport& h : report.hosts)
          total += h.report.arbiter.*field;
        for (const ClusterHostReport& h : start.hosts)
          total -= h.report.arbiter.*field;
        return total;
      };
      const u64 demotions = count(&ArbiterReport::demotions);
      const u64 promotions = count(&ArbiterReport::promotions);
      const size_t migrations = report.migrations.size() - start.migrations.size();
      const double epochs = static_cast<double>(report.epochs - start.epochs);
      v["platform.epochs"] = epochs;
      v["platform.run_ns_per_epoch"] = epochs > 0 ? sim_seconds * 1e9 / epochs : 0;
      v["platform.arbiter.demotions"] = static_cast<double>(demotions);
      v["platform.arbiter.promotions"] = static_cast<double>(promotions);
      v["platform.arbiter.keepalive_evictions"] =
          static_cast<double>(count(&ArbiterReport::keepalive_evictions));
      v["platform.arbiter.admission_closures"] =
          static_cast<double>(count(&ArbiterReport::admission_closures));
      v["platform.migrations"] = static_cast<double>(migrations);
      size_t causes = 0;
      for (size_t c = 0; c < kShedCauseCount; ++c) {
        v[std::string("platform.shed.") +
          shed_cause_json_key(static_cast<ShedCause>(c))] =
            static_cast<double>(d.shed[c]);
        causes += d.shed[c] > 0;
      }
      v["platform.deadline_misses"] = static_cast<double>(d.deadline_misses);
      v["platform.queue_peak"] = static_cast<double>(d.queue_peak);
      char line[200];
      std::snprintf(line, sizeof line,
                    "cluster: %zu lanes on %zu hosts, %llu demotions, %llu "
                    "promotions, %zu migrations, %zu shed causes",
                    lanes.size(), kHosts,
                    static_cast<unsigned long long>(demotions),
                    static_cast<unsigned long long>(promotions), migrations,
                    causes);
      rep.notes.emplace_back(line);
      if (opt.trace) {
        // Host-time spans exist only around add/run here: nothing inside an
        // epoch is visible from outside the program.
        const SpanTotals totals = total_spans(tracer, [](u64) { return true; });
        const double n = static_cast<double>(d.outs.size());
        const double run_ns_per_inv = sim_seconds * 1e9 / n;
        for (const u32 id : {span_predict, span_add}) {
          v[tracer.name(id) + ".calls_per_inv"] = totals.calls[id] / n;
          v[tracer.name(id) + ".ns_per_inv"] = totals.ns[id] / n;
          v[tracer.name(id) + ".share"] = totals.ns[id] / n / run_ns_per_inv;
        }
        v["platform.run.calls_per_inv"] = static_cast<double>(kSimPhases) / n;
        v["platform.run.ns_per_inv"] = run_ns_per_inv;
        v["platform.run.share"] = 1;
        v["platform.self.ns_per_inv"] = run_ns_per_inv;
        if (!opt.trace_path.empty() &&
            write_chrome_trace(tracer, opt.workload, opt.trace_path))
          rep.notes.push_back("chrome trace: " + opt.trace_path);
      }
    }
    before = std::move(report);
    ++phase;
  } while (phase < kSimPhases || (!opt.trace && rate.seconds < opt.seconds));

  for (size_t i = 0; i < lanes.size(); ++i) {
    const FunctionReport* f = before.find(lanes[i].spec.name);
    check_exactly_once(gates, *f, sent[i]);
    check_oracle(gates, f->name, f->outcomes);
  }
  v["setup_s"] = median(setup_s);
  rate.put(v, rep.notes);
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"invocations_per_s", "1/s"},
      {"peak_rss_mib", "MiB"},
      {"sim_latency_p50_ms", "ms"},
      {"sim_latency_p99_ms", "ms"},
      {"sim_charge_per_inv_uusd", "uUSD"},
      {"sim_fast_tier_mib", "MiB"},
      {"sim_goodput_fraction", "fraction"},
      {"served_fraction", "fraction"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tiered_steady",
                                                 "profiling_cold",
                                                 "cluster_pressure"};
  return names;
}

Report run_workload(const Options& options) {
  using Workload = void (*)(const Options&, Report&, Values&, Gates&);
  Workload workload = nullptr;
  if (options.workload == "tiered_steady") workload = tiered_steady;
  if (options.workload == "profiling_cold") workload = profiling_cold;
  if (options.workload == "cluster_pressure") workload = cluster_pressure;
  if (workload == nullptr)
    throw std::invalid_argument("unknown workload: " + options.workload);

  Report rep;
  Values v;
  Gates gates;
  workload(options, rep, v, gates);
  v["peak_rss_mib"] = peak_rss_mib();
  rep.failures = gates.failures;
  rep.correct = gates.failures.empty();
  for (const MetricDef& d :
       options.trace ? per_layer_metrics() : end_to_end_metrics())
    rep.values.push_back(v.count(d.name) ? v[d.name] : 0.0);
  return rep;
}

std::string result_json(const Report& report, bool trace) {
  const std::vector<MetricDef>& defs =
      trace ? per_layer_metrics() : end_to_end_metrics();
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    double value = i < report.values.size() ? report.values[i] : 0.0;
    if (!std::isfinite(value)) value = 0;
    char number[40];
    std::snprintf(number, sizeof number, "%.17g", value);
    out += std::string(i ? ", " : "") + "\"" + defs[i].name +
           "\": {\"value\": " + number + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace spine
