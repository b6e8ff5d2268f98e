// Overload-shedding bench: goodput as a function of offered load.
//
// A fleet of TOSS lanes is driven open-loop at a swept multiple of its own
// measured service rate (0.25x .. 10x), through bounded admission queues
// with deadline-aware shedding (DESIGN.md §9). The claim under test is the
// robustness one: past saturation, goodput — deadline-respecting
// completions per simulated second — must plateau near capacity instead of
// collapsing, because bounded queues cap the backlog and SLO-dead work is
// shed before it wastes a restore.
//
// A calibration pass first runs the fleet closed-loop to measure each
// lane's mean service time; the sweep then derives per-lane arrival gaps
// (service / multiplier) and deadlines from it, so "10x offered load"
// means the same thing for a 128 MB function and a 3 GB one.
//
// `--qos` switches to the SLO sweep instead (DESIGN.md §14): even lanes
// are gold at a fixed 0.8x load, odd lanes bronze sweeping the same
// multipliers, against a fast-tier budget barely above the gold demand.
// The gates there are QoS ones — gold SLO attainment flat across the
// sweep, bronze absorbing the shedding at the heaviest load, and whole
// reports `==` across thread counts over three seeds — with results in
// overload_shed_qos.json.
//
// Results land in overload_shed.json under the bench artifact directory
// (--out-dir=PATH, default <build>/bench_artifacts). The process exits
// nonzero — a CI gate, not just a plot — if any lane queue ever exceeded
// its bound, if the reports differ between a serial and a 4-thread drain
// at the heaviest load, or if goodput at 10x fell below 60% of the
// peak across the sweep.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "toss.hpp"

#include "common.hpp"

using namespace toss;

namespace {

constexpr size_t kFleetSize = 6;
constexpr size_t kRequestsPerFunction = 60;
constexpr size_t kQueueDepth = 3;
constexpr double kDeadlineServiceMultiple = 6.0;
constexpr double kMultipliers[] = {0.25, 0.5, 1.0, 2.0, 4.0, 10.0};

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 5;
  opt.max_profiling_invocations = 40;
  return opt;
}

/// QoS-mode class assignment: even lanes gold, odd lanes bronze.
QosClass lane_class(size_t lane) {
  return lane % 2 == 0 ? QosClass::kGold : QosClass::kBronze;
}

std::unique_ptr<PlatformEngine> make_fleet(
    const SystemConfig& cfg, const EngineOptions& opts,
    const std::vector<std::vector<Request>>& streams, bool qos = false) {
  auto engine = std::make_unique<PlatformEngine>(cfg, PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < kFleetSize; ++i) {
    FunctionSpec spec = base[i % base.size()];
    spec.name += "#" + std::to_string(i);
    FunctionRegistration reg(std::move(spec));
    reg.policy(PolicyKind::kToss).toss(fast_toss()).seed(700 + i);
    if (qos) reg.qos(lane_class(i));
    engine->add(reg, streams[i]).value();
  }
  return engine;
}

std::vector<Request> closed_stream(size_t lane) {
  return RequestGenerator::round_robin(kRequestsPerFunction, 31 + lane);
}

/// Closed-loop calibration: each lane's mean invocation time, the unit the
/// sweep expresses offered load in.
std::vector<Nanos> calibrate(const SystemConfig& cfg) {
  std::vector<std::vector<Request>> streams;
  for (size_t i = 0; i < kFleetSize; ++i) streams.push_back(closed_stream(i));
  auto engine = make_fleet(cfg, EngineOptions{}, streams);
  const EngineReport report = engine->run(4).value();
  std::vector<Nanos> mean_service;
  for (const FunctionReport& f : report.functions) {
    double sum = 0;
    for (const InvocationOutcome& o : f.outcomes)
      sum += static_cast<double>(o.result.total_ns());
    mean_service.push_back(sum /
                           static_cast<double>(std::max<size_t>(
                               f.outcomes.size(), 1)));
  }
  return mean_service;
}

struct LoadRow {
  double multiplier = 0;
  u64 offered = 0, completed = 0, shed = 0, deadline_misses = 0;
  size_t queue_peak = 0;  // max over lanes; the gate checks <= kQueueDepth
  double offered_per_s = 0, goodput_per_s = 0;
};

struct LoadRun {
  LoadRow row;
  EngineReport report;
};

LoadRun run_load(const SystemConfig& cfg, double multiplier,
                 const std::vector<Nanos>& mean_service, int threads) {
  EngineOptions opts;
  opts.chunk = 4;
  opts.max_lane_queue = kQueueDepth;
  opts.enforce_deadlines = true;

  std::vector<std::vector<Request>> streams;
  Nanos span = 0;  // simulated duration: last arrival + drain grace
  for (size_t i = 0; i < kFleetSize; ++i) {
    const Nanos gap = mean_service[i] / multiplier;
    const Nanos deadline = kDeadlineServiceMultiple * mean_service[i];
    streams.push_back(RequestGenerator::open_loop(closed_stream(i), gap,
                                                  deadline, 97 + i));
    span = std::max(span, streams[i].back().arrival_ns + deadline);
  }

  auto engine = make_fleet(cfg, opts, streams);
  LoadRun run;
  run.report = engine->run(threads).value();
  run.row.multiplier = multiplier;
  for (const FunctionReport& f : run.report.functions) {
    run.row.offered += f.overload.offered;
    run.row.completed += f.overload.completed;
    run.row.shed += f.overload.total_shed();
    run.row.deadline_misses += f.overload.deadline_misses;
    run.row.queue_peak = std::max(run.row.queue_peak, f.overload.queue_peak);
  }
  const double span_s = span / 1e9;
  run.row.offered_per_s = static_cast<double>(run.row.offered) / span_s;
  run.row.goodput_per_s =
      static_cast<double>(run.row.completed - run.row.deadline_misses) /
      span_s;
  return run;
}

void write_json(const std::string& path, const std::vector<LoadRow>& rows) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"overload_shed\",\"fleet\":%zu,"
               "\"requests_per_function\":%zu,\"queue_depth\":%zu,"
               "\"deadline_service_multiple\":%g,\"rows\":[",
               kFleetSize, kRequestsPerFunction, kQueueDepth,
               kDeadlineServiceMultiple);
  for (size_t i = 0; i < rows.size(); ++i) {
    const LoadRow& r = rows[i];
    std::fprintf(out,
                 "%s{\"multiplier\":%g,\"offered\":%llu,\"completed\":%llu,"
                 "\"shed\":%llu,\"deadline_misses\":%llu,"
                 "\"queue_peak\":%zu,\"offered_per_s\":%.3f,"
                 "\"goodput_per_s\":%.3f}",
                 i ? "," : "", r.multiplier,
                 static_cast<unsigned long long>(r.offered),
                 static_cast<unsigned long long>(r.completed),
                 static_cast<unsigned long long>(r.shed),
                 static_cast<unsigned long long>(r.deadline_misses),
                 r.queue_peak, r.offered_per_s, r.goodput_per_s);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("artifact: %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// --qos mode: gold lanes hold a fixed sub-saturation load while bronze
// lanes sweep the same multipliers as the default mode, with the host's
// global queue bound as the shared bottleneck the classes contend for. The
// claim under test is the SLO one: as bronze load climbs past saturation,
// the QoS-aware degradation order (bronze-first global trim, EDF pop
// within a lane, deadline shedding) must keep gold SLO attainment flat
// while bronze absorbs the shedding. (The arbiter's curve demotion and
// per-class admission gates are covered by qos_test's scripted harness:
// a fresh fleet cannot tier under a budget tight enough to exercise them,
// because pre-tiered lanes pin their whole image in DRAM.)

constexpr double kGoldMultiplier = 0.8;
constexpr size_t kGlobalQueueDepth = kFleetSize * kQueueDepth / 2;
constexpr double kGoldFlatTolerance = 0.05;

struct QosClassRow {
  u64 offered = 0, completed = 0, shed = 0, deadline_misses = 0;
  double attainment() const {
    return offered == 0
               ? 1.0
               : static_cast<double>(completed - deadline_misses) /
                     static_cast<double>(offered);
  }
};

struct QosRow {
  double multiplier = 0;  ///< bronze load; gold holds kGoldMultiplier
  QosClassRow gold, bronze;
  size_t queue_peak = 0;
};

struct QosRun {
  QosRow row;
  EngineReport report;
};

QosRun run_qos_load(const SystemConfig& cfg, double bronze_multiplier,
                    const std::vector<Nanos>& mean_service, int threads,
                    u64 seed) {
  EngineOptions opts;
  opts.chunk = 4;
  opts.max_lane_queue = kQueueDepth;
  // The shared bottleneck the classes contend for: a host-wide queue bound
  // at half the lane-bound sum, so bronze saturation forces the barrier's
  // global trim — which sheds bronze to exhaustion before touching gold.
  opts.max_global_queue = kGlobalQueueDepth;
  opts.enforce_deadlines = true;

  std::vector<std::vector<Request>> streams;
  for (size_t i = 0; i < kFleetSize; ++i) {
    const double multiplier = lane_class(i) == QosClass::kGold
                                  ? kGoldMultiplier
                                  : bronze_multiplier;
    const Nanos gap = mean_service[i] / multiplier;
    const Nanos deadline = kDeadlineServiceMultiple * mean_service[i];
    streams.push_back(RequestGenerator::open_loop(
        closed_stream(i), gap, deadline, 97 + i + seed * 131));
  }

  auto engine = make_fleet(cfg, opts, streams, /*qos=*/true);
  QosRun run;
  run.report = engine->run(threads).value();
  run.row.multiplier = bronze_multiplier;
  size_t lane = 0;
  for (const FunctionReport& f : run.report.functions) {
    QosClassRow& c =
        lane_class(lane) == QosClass::kGold ? run.row.gold : run.row.bronze;
    c.offered += f.overload.offered;
    c.completed += f.overload.completed;
    c.shed += f.overload.total_shed();
    c.deadline_misses += f.overload.deadline_misses;
    run.row.queue_peak = std::max(run.row.queue_peak, f.overload.queue_peak);
    ++lane;
  }
  return run;
}

void write_qos_json(const std::string& path, const std::vector<QosRow>& rows) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\"bench\":\"overload_shed_qos\",\"fleet\":%zu,"
               "\"requests_per_function\":%zu,\"queue_depth\":%zu,"
               "\"deadline_service_multiple\":%g,\"gold_multiplier\":%g,"
               "\"global_queue_depth\":%zu,\"rows\":[",
               kFleetSize, kRequestsPerFunction, kQueueDepth,
               kDeadlineServiceMultiple, kGoldMultiplier, kGlobalQueueDepth);
  for (size_t i = 0; i < rows.size(); ++i) {
    const QosRow& r = rows[i];
    std::fprintf(
        out,
        "%s{\"multiplier\":%g,\"queue_peak\":%zu,"
        "\"gold\":{\"offered\":%llu,\"completed\":%llu,\"shed\":%llu,"
        "\"deadline_misses\":%llu,\"attainment\":%.6f},"
        "\"bronze\":{\"offered\":%llu,\"completed\":%llu,\"shed\":%llu,"
        "\"deadline_misses\":%llu,\"attainment\":%.6f}}",
        i ? "," : "", r.multiplier, r.queue_peak,
        static_cast<unsigned long long>(r.gold.offered),
        static_cast<unsigned long long>(r.gold.completed),
        static_cast<unsigned long long>(r.gold.shed),
        static_cast<unsigned long long>(r.gold.deadline_misses),
        r.gold.attainment(),
        static_cast<unsigned long long>(r.bronze.offered),
        static_cast<unsigned long long>(r.bronze.completed),
        static_cast<unsigned long long>(r.bronze.shed),
        static_cast<unsigned long long>(r.bronze.deadline_misses),
        r.bronze.attainment());
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("artifact: %s\n", path.c_str());
}

int run_qos_mode(int argc, char** argv, const SystemConfig& cfg) {
  const std::vector<Nanos> mean_service = calibrate(cfg);

  std::printf("gold holds %.2fx; bronze sweeps. global queue bound = %zu\n",
              kGoldMultiplier, kGlobalQueueDepth);
  std::printf("%6s %9s %9s %9s %9s %9s %9s\n", "load", "gold-att",
              "gold-shed", "brz-att", "brz-shed", "brz-compl", "qpeak");
  std::vector<QosRow> rows;
  bool queue_bound_held = true;
  for (const double multiplier : kMultipliers) {
    const QosRun run =
        run_qos_load(cfg, multiplier, mean_service, /*threads=*/4, 41);
    const QosRow& r = run.row;
    queue_bound_held = queue_bound_held && r.queue_peak <= kQueueDepth;
    std::printf("%5.2fx %9.4f %9llu %9.4f %9llu %9llu %9zu\n", r.multiplier,
                r.gold.attainment(),
                static_cast<unsigned long long>(r.gold.shed),
                r.bronze.attainment(),
                static_cast<unsigned long long>(r.bronze.shed),
                static_cast<unsigned long long>(r.bronze.completed),
                r.queue_peak);
    rows.push_back(r);
  }

  write_qos_json(
      toss::bench::artifact_path(argc, argv, "overload_shed_qos.json"), rows);

  // Gate 1: bounded queues stayed bounded.
  if (!queue_bound_held) {
    std::printf("FAIL: a lane queue exceeded its bound of %zu\n", kQueueDepth);
    return 1;
  }
  // Gate 2: gold SLO attainment holds flat across the whole bronze sweep —
  // saturation lands on bronze, not gold.
  double gold_min = 1.0, gold_max = 0.0;
  for (const QosRow& r : rows) {
    gold_min = std::min(gold_min, r.gold.attainment());
    gold_max = std::max(gold_max, r.gold.attainment());
  }
  if (gold_max - gold_min > kGoldFlatTolerance) {
    std::printf("FAIL: gold SLO attainment sagged under bronze overload "
                "(%.4f .. %.4f)\n",
                gold_min, gold_max);
    return 1;
  }
  // Gate 3: bronze absorbed the shedding at the heaviest load.
  const QosRow& heaviest_row = rows.back();
  if (heaviest_row.bronze.shed <= heaviest_row.gold.shed) {
    std::printf("FAIL: shedding was not QoS-ordered at %.0fx (bronze %llu "
                "<= gold %llu)\n",
                heaviest_row.multiplier,
                static_cast<unsigned long long>(heaviest_row.bronze.shed),
                static_cast<unsigned long long>(heaviest_row.gold.shed));
    return 1;
  }
  // Gate 4: the QoS-aware reports stay `==` between a serial and a
  // 4-thread drain at the heaviest load, over three stream seeds.
  const double heaviest = kMultipliers[std::size(kMultipliers) - 1];
  const bool ledgers_ok = toss::bench::ledger_equality_sweep(
      {41, 42, 43}, /*threads=*/4,
      [&](u64 seed, int threads) {
        return run_qos_load(cfg, heaviest, mean_service, threads, seed).report;
      },
      [](u64, const EngineReport&, bool) {});
  if (!ledgers_ok) {
    std::printf("FAIL: QoS reports diverged between 1 and 4 threads\n");
    return 1;
  }
  std::printf("gold SLO holds flat: %.4f .. %.4f across bronze %.2fx .. "
              "%.0fx\n",
              gold_min, gold_max, kMultipliers[0], heaviest);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--qos")
      return run_qos_mode(argc, argv,
                          toss::bench::ladder_config_from_args(argc, argv));
  // `--config=paper|cxl|nvme` (or --ladder=2|3|4) picks the host ladder;
  // the default two-tier run is the bit-stable CI artifact.
  const SystemConfig cfg = toss::bench::ladder_config_from_args(argc, argv);
  const std::vector<Nanos> mean_service = calibrate(cfg);

  std::printf("%6s %8s %8s %6s %7s %6s %12s %12s\n", "load", "offered",
              "complet", "shed", "misses", "qpeak", "offered/s", "goodput/s");
  std::vector<LoadRow> rows;
  bool queue_bound_held = true;
  for (const double multiplier : kMultipliers) {
    const LoadRun run = run_load(cfg, multiplier, mean_service, /*threads=*/4);
    const LoadRow& r = run.row;
    queue_bound_held = queue_bound_held && r.queue_peak <= kQueueDepth;
    std::printf("%5.2fx %8llu %8llu %6llu %7llu %6zu %12.3f %12.3f\n",
                r.multiplier, static_cast<unsigned long long>(r.offered),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.deadline_misses),
                r.queue_peak, r.offered_per_s, r.goodput_per_s);
    rows.push_back(r);
  }

  write_json(toss::bench::artifact_path(argc, argv, "overload_shed.json"),
             rows);

  // Gate 1: bounded queues stayed bounded at every offered load.
  if (!queue_bound_held) {
    std::printf("FAIL: a lane queue exceeded its bound of %zu\n", kQueueDepth);
    return 1;
  }
  // Gate 2: the report at the heaviest load is `==` between a serial and
  // a 4-thread drain (the determinism contract, soaked). One dummy seed:
  // the sweep shape is shared with the cluster soaks.
  const double heaviest = kMultipliers[std::size(kMultipliers) - 1];
  const bool ledgers_ok = toss::bench::ledger_equality_sweep(
      {0}, /*threads=*/4,
      [&](u64, int threads) {
        return run_load(cfg, heaviest, mean_service, threads).report;
      },
      [](u64, const EngineReport&, bool) {});
  if (!ledgers_ok) {
    std::printf("FAIL: reports diverged between 1 and 4 threads\n");
    return 1;
  }
  // Gate 3: goodput plateaus past saturation instead of collapsing.
  double peak = 0;
  for (const LoadRow& r : rows) peak = std::max(peak, r.goodput_per_s);
  const double at_heaviest = rows.back().goodput_per_s;
  if (at_heaviest < 0.6 * peak) {
    std::printf("FAIL: goodput collapsed under overload (%.3f/s vs peak "
                "%.3f/s)\n",
                at_heaviest, peak);
    return 1;
  }
  std::printf("goodput plateau holds: %.3f/s at %.0fx vs peak %.3f/s\n",
              at_heaviest, heaviest, peak);
  return 0;
}
