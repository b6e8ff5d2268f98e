// The perf spine's three workloads and their reports.
//
//   tiered_steady     PlatformEngine, 32 lanes cycling the ten Table-I
//                     functions, warmed to kTiered in set-up; measures the
//                     steady tiered restore path.
//   profiling_cold    PlatformEngine, 64 fresh lanes; Step I in set-up,
//                     then Steps II-IV and a short tiered tail are measured.
//   cluster_pressure  ClusterEngine, 4 hosts x 2 workers, gold/bronze lanes
//                     plus a profiling-pinned hog under a fast-tier budget
//                     below steady demand, open-loop arrivals with bounded
//                     queues and deadlines.
//
// A run measures one workload: end-to-end metrics with tracing off, or
// (trace mode) per-layer metrics from a layer replay of the same requests
// (spine/replay.hpp). Either way every correctness gate runs.
#pragma once

#include <string>
#include <vector>

#include "spine/spans.hpp"

namespace spine {

/// kTiny shrinks every fleet to a few lanes for the self-test smoke run.
enum class Scale { kFull, kTiny };

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of a trace-mode run
  Scale scale = Scale::kFull;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in report order (trace mode off).
const std::vector<MetricDef>& end_to_end_metrics();
/// Every per-layer metric, in report order (trace mode on).
const std::vector<MetricDef>& per_layer_metrics();
const std::vector<std::string>& workload_names();

struct Report {
  /// False when any correctness gate failed; `failures` says which.
  bool correct = true;
  std::vector<std::string> failures;
  u64 attempted = 0;  ///< requests offered in the measured phase
  /// Requests that errored or exhausted recovery (shedding is admission
  /// control doing its job and is reported by the metrics instead).
  u64 failed = 0;
  /// Values of the metrics of the run's mode, in definition order.
  std::vector<double> values;
  /// Informational lines printed before the result (digest, sample
  /// counts, replay checks).
  std::vector<std::string> notes;
};

/// Run one workload. Throws std::invalid_argument for an unknown name.
Report run_workload(const Options& options);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(const Report& report, bool trace);

}  // namespace spine
