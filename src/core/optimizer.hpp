// Placement optimizer (Section V-C, final stage of Step III).
//
// Every bin whose per-bin normalized cost is below 1 lowers the total
// memory cost and is placed deeper in the ladder. When the client supplies
// a slowdown threshold, candidate descents are taken in sweep order and
// applied until the threshold would be exceeded. The chosen configuration
// is a prefix of the bin profile's descent sequence, so each bin ends on
// its own rung (colder bins deeper) — with a two-tier ladder this
// degenerates to the paper's fast/slow split.
#pragma once

#include <optional>

#include "core/bin_profiler.hpp"
#include "trace/pattern.hpp"

namespace toss {

struct TieringOptions {
  int bin_count = 10;                         ///< paper: N = 10
  std::optional<double> slowdown_threshold;   ///< e.g. 0.10 for <= 10%
  /// QoS SLO target: derive the slowdown threshold from this instead of
  /// taking it as a given. When set and slowdown_threshold is not, Step III
  /// walks the Eq-1 cost curve to the cheapest configuration whose
  /// cumulative slowdown stays within the SLO and uses that configuration's
  /// slowdown as the effective threshold (recorded in
  /// TieringDecision::derived_threshold). An explicit slowdown_threshold
  /// always wins.
  std::optional<double> slo_slowdown;
  /// Demotion floor (RetierBound::min_descent_prefix): force the chosen
  /// configuration at least this many descents down the sweep, past
  /// whatever the threshold alone would pick — fitting the fleet's DRAM
  /// budget outranks the SLO preference under duress. The arbiter demotes
  /// a lane by re-tiering at the next TieringDecision::demotion_curve point.
  std::optional<size_t> min_descent_prefix;
};

/// One stop further down the Step-III descent sweep: the cheapest prefix at
/// a strictly smaller rank-0 (fastest tier) footprint than the point above
/// it. TieringDecision::demotion_curve lists these nearest-first; the
/// arbiter demotes a lane by walking them.
struct CostCurvePoint {
  size_t prefix = 0;       ///< descents applied (sweep-order prefix length)
  u64 fast_bytes = 0;      ///< rank-0 bytes the placement would keep
  double slowdown = 0;     ///< cumulative slowdown at this prefix
  double cost = 0;         ///< cumulative Eq-1 normalized cost

  bool operator==(const CostCurvePoint&) const = default;
};

struct TieringDecision {
  PagePlacement placement;
  double expected_slowdown = 0;   ///< measured at the chosen configuration
  double normalized_cost = 1.0;   ///< Eq 1, normalized (DRAM-only = 1)
  double slow_fraction = 0;       ///< Table II's "slow tier percentage"
  /// Per bin index: chosen ladder rung (> 0 = offloaded below rank 0).
  std::vector<size_t> bin_rank;
  /// Descents actually applied (after the threshold sweep and the
  /// min_descent_prefix floor).
  size_t chosen_prefix = 0;
  /// Slowdown threshold derived from TieringOptions::slo_slowdown; unset
  /// when no SLO drove the selection.
  std::optional<double> derived_threshold;
  /// Demotion candidates below the chosen configuration, nearest first:
  /// for each strictly smaller rank-0 footprint reachable further down the
  /// sweep, the cheapest prefix at that footprint. Empty = fully descended.
  std::vector<CostCurvePoint> demotion_curve;
  /// The sweep this was picked from; TossFunction::retier re-picks from it.
  BinProfile profile;
};

/// SLO -> Eq-1 threshold derivation: the cumulative slowdown of the
/// cheapest sweep prefix whose slowdown stays within `slo_slowdown`
/// (`base_cost` is the prefix-0 / everything-fast cost; the walk mirrors
/// choose_placement and stops at the first step exceeding the SLO).
/// Returns 0 when no descent fits the SLO — the placement stays all-fast.
double derive_slowdown_threshold(const BinProfile& profile, double base_cost,
                                 double slo_slowdown);

/// The minimum-cost (optionally slowdown-bounded, floored by
/// min_descent_prefix) descent selection on a finished bin profile of
/// `bins`. Replays nothing: the chosen placement is a sweep prefix, whose
/// slowdown, slow fraction and cost the profile already holds. A lane
/// re-tiers by calling this again on the profile of its last Step III.
TieringDecision select_placement(const SystemConfig& cfg, BinProfile profile,
                                 const std::vector<Bin>& bins,
                                 const TieringOptions& options);

/// Run the full analysis for a set of packed bins: bin profiling followed
/// by select_placement.
TieringDecision choose_placement(const SystemConfig& cfg,
                                 const std::vector<Bin>& bins,
                                 const RegionList& zero_regions,
                                 u64 guest_pages,
                                 const Invocation& representative,
                                 const TieringOptions& options);

/// Step III's packing stage: the merged unified pattern split into its
/// zero-access regions and `bin_count` equal-access bins of the rest.
struct PackedPattern {
  RegionList zero_regions;
  std::vector<Bin> bins;
};
PackedPattern pack_pattern(const PageAccessCounts& unified, int bin_count);

/// Convenience: counts -> merged regions -> bins -> decision. This is the
/// complete "Profiling Analysis" step on a unified access pattern.
TieringDecision analyze_pattern(const SystemConfig& cfg,
                                const PageAccessCounts& unified,
                                const Invocation& representative,
                                const TieringOptions& options);

}  // namespace toss
