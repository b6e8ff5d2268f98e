// Per-function latency histograms and the per-host rollups a report
// carries next to its FunctionReports (platform/host.hpp).
//
// Everything here is plain data. A lane's histograms are written only by
// the worker that runs the lane's chunk, and the rollups are computed from
// barrier-serial state when a report is built. EngineReport::to_json
// (defined in metrics.cpp) serializes one host's report as metrics JSON
// schema 7 (DESIGN.md §9), in which every key is always present.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "platform/qos.hpp"
#include "util/units.hpp"

namespace toss {

/// Latency histogram over log2(ns) buckets: bucket i counts samples in
/// [2^i, 2^(i+1)) ns; 48 buckets span 1 ns .. ~3.2 days. The count, sum,
/// min and max are exact.
class LatencyHistogram {
 public:
  static constexpr int kBucketCount = 48;

  void record(Nanos t);

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  ///< 0 when empty
  double max() const { return max_; }  ///< 0 when empty
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0;
  }
  /// Bucket-resolution percentile (upper bound of the containing bucket,
  /// clamped to the observed max). p in [0, 100].
  double percentile(double p) const;

  bool operator==(const LatencyHistogram&) const = default;

 private:
  u64 count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::array<u64, kBucketCount> buckets_{};
};

/// Fleet-wide rollup of one ladder rank at report time.
struct TierRollup {
  std::string tier;        ///< tier_name(rank)
  u64 resident_bytes = 0;  ///< bytes live lanes currently pin in this rank
  u64 capacity_bytes = 0;  ///< TierSpec::capacity_bytes of the rank
  /// resident / capacity; 0 when the capacity is unknown or unbounded.
  double occupancy = 0;

  bool operator==(const TierRollup&) const = default;
};

/// Per-host health rollup, filled by the cluster's health governance;
/// all-default on a bare engine's host.
struct HostHealthRollup {
  bool lost = false;         ///< host crashed (lanes failed over / abandoned)
  bool quarantined = false;  ///< health breaker open at report time
  u64 brownouts = 0;         ///< brownout epochs this host absorbed
  u64 quarantines = 0;       ///< breaker open transitions
  u64 readmissions = 0;      ///< breaker half-open -> closed transitions
  u64 lanes_failed_over = 0;  ///< lanes re-placed off this host at crash

  bool operator==(const HostHealthRollup&) const = default;
};

/// One QoS class's SLO-attainment rollup across a host's lanes. Only
/// classes with at least one lane appear; order is the QosClass enum
/// order, so the rollup is deterministic by construction.
struct QosClassRollup {
  QosClass cls = QosClass::kNone;
  QosAttainment ledger;

  bool operator==(const QosClassRollup&) const = default;
};

/// One entry of a "qos" rollup array, host or cluster:
/// {"class":..,"offered":..,"completed":..,"slo_met":..,"attainment":..}.
std::string qos_rollup_json(QosClass cls, const QosAttainment& ledger);

/// The host-level rollups of one report: what no single FunctionReport
/// knows.
struct MetricsSnapshot {
  std::string host;  ///< which simulated host produced the report
  /// Per-ladder-rank rollup, index 0 = fastest.
  std::vector<TierRollup> tiers;
  HostHealthRollup health;
  /// Per-class SLO-attainment rollup in QosClass enum order; empty unless
  /// the host has QoS-classed lanes.
  std::vector<QosClassRollup> qos;

  bool operator==(const MetricsSnapshot&) const = default;
};

}  // namespace toss
