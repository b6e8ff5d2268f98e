// Engine throughput: wall-clock scaling of the concurrent data plane over
// the serial reference path on a 64-function fleet, with a bit-for-bit
// determinism check at every point of the sweep.
//
// The fleet cycles the ten Table-I functions (distinct registrations, so 64
// isolated lanes); every lane drives enough requests to cross the full TOSS
// lifecycle. The sweep runs the fleet at 1/2/4/8 worker threads (the top
// overridable with --engine_threads=N) and, with --hosts=N, spreads the
// same fleet over N simulated hosts behind the ClusterEngine so the
// multi-host epoch loop is on the measured spine too. Every point must
// reproduce the 1-thread run's whole report (on the cluster axis, the whole
// cluster report) bit-for-bit — lanes share no mutable state — so the only
// thing allowed to change is the wall clock, which the bench reads around
// each run() call.
//
// Artifacts under the bench artifact directory (--out-dir=PATH, default
// <build>/bench_artifacts): engine_metrics.json (counters + latency
// histograms from the widest run) and engine_scaling.json (the scaling
// curve). The exit code gates on determinism at every point and on a
// minimum parallel speedup at the sweep top — >= 3x with >= 8 hardware
// threads, >= 1.5x with >= 4; report-only below (a single-core runner
// cannot demonstrate parallel speedup by construction).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "toss.hpp"

#include "common.hpp"

using namespace toss;

namespace {

constexpr size_t kFleetSize = 64;
constexpr size_t kRequestsPerFunction = 48;

TossOptions fleet_toss() {
  TossOptions toss;
  toss.stable_invocations = 5;
  toss.max_profiling_invocations = 40;
  return toss;
}

FunctionRegistration fleet_registration(size_t i, FunctionSpec spec) {
  spec.name += "#" + std::to_string(i);
  return FunctionRegistration(std::move(spec))
      .policy(PolicyKind::kToss)
      .toss(fleet_toss())
      .seed(1000 + i);
}

std::unique_ptr<PlatformEngine> build_fleet() {
  EngineOptions opts;
  opts.keep_outcomes = false;  // 64 x 48 outcomes are noise; stats suffice
  auto engine = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                                 PricingPlan{}, opts);
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < kFleetSize; ++i) {
    FunctionSpec spec = base[i % base.size()];
    auto requests = RequestGenerator::round_robin(
        kRequestsPerFunction, mix_seed(7000 + i, spec.name));
    engine->add(fleet_registration(i, std::move(spec)), std::move(requests))
        .value();
  }
  return engine;
}

/// The --hosts=N axis: the same 64 lanes spread over N simulated hosts, so
/// the sweep also measures the cluster's multi-host epochs. The
/// arbiter budget is effectively unbounded — this bench measures the
/// executor, not admission control.
std::unique_ptr<ClusterEngine> build_cluster_fleet(size_t hosts) {
  ClusterOptions opts;
  opts.hosts = hosts;
  opts.host_options.keep_outcomes = false;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = u64{1} << 40;
  auto cluster =
      std::make_unique<ClusterEngine>(opts, SystemConfig::paper_default());
  const std::vector<FunctionSpec> base = workloads::all_functions();
  for (size_t i = 0; i < kFleetSize; ++i) {
    FunctionSpec spec = base[i % base.size()];
    auto requests = RequestGenerator::round_robin(
        kRequestsPerFunction, mix_seed(7000 + i, spec.name));
    cluster->add(fleet_registration(i, std::move(spec)), std::move(requests))
        .value();
  }
  return cluster;
}

struct ScalePoint {
  int threads = 1;
  double wall_ms = 0;
  bool deterministic = false;
};

void write_scaling_json(const std::string& path, size_t hosts,
                        const std::vector<ScalePoint>& points,
                        double speedup_at_max) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  const double serial_ms = points.empty() ? 0 : points.front().wall_ms;
  std::fprintf(out,
               "{\"bench\":\"engine_throughput\",\"fleet\":%zu,"
               "\"requests_per_function\":%zu,\"hosts\":%zu,"
               "\"hardware_threads\":%d,\"speedup_at_max\":%.2f,"
               "\"points\":[",
               kFleetSize, kRequestsPerFunction, hosts,
               hardware_threads(), speedup_at_max);
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(out,
                 "%s{\"threads\":%d,\"wall_ms\":%.1f,\"speedup\":%.2f,"
                 "\"deterministic\":%s}",
                 i ? "," : "", p.threads, p.wall_ms,
                 p.wall_ms > 0 ? serial_ms / p.wall_ms : 0.0,
                 p.deterministic ? "true" : "false");
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("artifact: %s\n", path.c_str());
}

int run_sweep(int max_threads, size_t hosts, const std::string& metrics_path,
              const std::string& scaling_path) {
  std::printf("fleet: %zu functions x %zu requests, hosts: %zu, "
              "host threads: %d\n",
              kFleetSize, kRequestsPerFunction, hosts,
              hardware_threads());

  std::vector<int> axis = {1, 2, 4, 8, max_threads};
  std::sort(axis.begin(), axis.end());
  axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
  axis.erase(std::remove_if(axis.begin(), axis.end(),
                            [&](int t) { return t > max_threads; }),
             axis.end());

  std::vector<ScalePoint> points;
  bool deterministic = true;
  u64 violations = 0;

  if (hosts <= 1) {
    auto serial_engine = build_fleet();
    const bench::Stopwatch serial_watch;
    const EngineReport serial = serial_engine->run(1).value();
    const double serial_wall_ms = serial_watch.ms();
    EngineReport widest = serial;
    for (const int threads : axis) {
      ScalePoint point;
      point.threads = threads;
      if (threads == 1) {
        point.wall_ms = serial_wall_ms;
        point.deterministic = true;
      } else {
        auto engine = build_fleet();
        const bench::Stopwatch watch;
        const EngineReport report = engine->run(threads).value();
        point.wall_ms = watch.ms();
        point.deterministic = report == serial &&
                              report.serialization_violations == 0;
        violations += report.serialization_violations;
        if (threads == axis.back()) widest = report;
      }
      deterministic = deterministic && point.deterministic;
      points.push_back(point);
      std::printf("%2d threads: %8.1f ms wall, report %s\n",
                  threads, point.wall_ms,
                  point.deterministic ? "bit-identical" : "DIVERGED");
    }

    u64 tiered = 0;
    for (const FunctionReport& f : widest.functions)
      if (f.final_phase == TossPhase::kTiered) ++tiered;
    std::printf("lifecycle: %llu/%zu lanes reached the tiered phase\n",
                static_cast<unsigned long long>(tiered),
                widest.functions.size());

    if (FILE* out = std::fopen(metrics_path.c_str(), "w")) {
      const std::string json = widest.to_json();
      std::fwrite(json.data(), 1, json.size(), out);
      std::fclose(out);
      std::printf("metrics: %s (%zu functions, %llu invocations)\n",
                  metrics_path.c_str(), widest.functions.size(),
                  static_cast<unsigned long long>(widest.total_invocations()));
    }
  } else {
    auto serial_cluster = build_cluster_fleet(hosts);
    const bench::Stopwatch serial_watch;
    const ClusterReport serial = serial_cluster->run(1).value();
    const double serial_wall_ms = serial_watch.ms();
    for (const int threads : axis) {
      ScalePoint point;
      point.threads = threads;
      if (threads == 1) {
        point.wall_ms = serial_wall_ms;
        point.deterministic = true;
      } else {
        auto cluster = build_cluster_fleet(hosts);
        const bench::Stopwatch watch;
        const ClusterReport report = cluster->run(threads).value();
        point.wall_ms = watch.ms();
        point.deterministic = report == serial;
      }
      deterministic = deterministic && point.deterministic;
      points.push_back(point);
      std::printf("%2d threads x %zu hosts: %8.1f ms wall, report %s\n",
                  threads, hosts, point.wall_ms,
                  point.deterministic ? "bit-identical" : "DIVERGED");
    }
  }

  const double serial_ms = points.front().wall_ms;
  const double widest_ms = points.back().wall_ms;
  const double speedup = widest_ms > 0 ? serial_ms / widest_ms : 0;
  std::printf("speedup at %d threads: %.2fx (serialization violations: "
              "%llu)\n",
              points.back().threads, speedup,
              static_cast<unsigned long long>(violations));

  write_scaling_json(scaling_path, hosts, points, speedup);

  if (!deterministic) {
    std::printf("FAIL: a sweep point diverged from the serial reference\n");
    return 1;
  }
  // Hardware-adaptive speedup floor (same scheme as cluster_scale).
  const int hw = hardware_threads();
  const int top = points.back().threads;
  double floor = 0;
  if (hw >= 8 && top >= 8)
    floor = 3.0;
  else if (hw >= 4 && top >= 4)
    floor = 1.5;
  if (floor > 0 && speedup < floor) {
    std::printf("FAIL: %d-thread speedup %.2fx below the %.1fx floor "
                "(hardware threads: %d)\n",
                top, speedup, floor, hw);
    return 1;
  }
  if (floor == 0)
    std::printf("note: %d hardware threads — speedup is report-only on this "
                "machine\n", hw);
  return 0;
}

void BM_engine_parallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto engine = build_fleet();
    const EngineReport report = engine->run(threads).value();
    benchmark::DoNotOptimize(report.total_invocations());
  }
}
BENCHMARK(BM_engine_parallel)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  int threads = 8;
  size_t hosts = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--engine_threads=", 17) == 0)
      threads = std::atoi(argv[i] + 17);
    if (std::strncmp(argv[i], "--hosts=", 8) == 0)
      hosts = static_cast<size_t>(std::atoi(argv[i] + 8));
  }
  const std::string metrics_path =
      toss::bench::artifact_path(argc, argv, "engine_metrics.json");
  const std::string scaling_path =
      toss::bench::artifact_path(argc, argv, "engine_scaling.json");
  const int rc = run_sweep(threads > 0 ? threads : 8, hosts > 0 ? hosts : 1,
                           metrics_path, scaling_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return rc;
}
