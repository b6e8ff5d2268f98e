// QoS classes and the shed/SLO ledger vocabulary (DESIGN.md §14).
//
// Two things live here, deliberately together, because they are the two
// halves of SLO-driven graceful degradation:
//
//   - ShedCause: the typed reason a request was dropped instead of served.
//     The one shed counter in the system (OverloadStats::shed) is an array
//     indexed by this enum, so adding a cause is one enum entry + one JSON
//     name — not a new ad-hoc field. ShedEvent (platform/host.hpp) carries
//     the same enum.
//   - QosClass / QosSpec / QosAttainment: the per-function service class
//     (gold is protected through saturation, bronze absorbs degradation
//     first), its SLO slowdown target, and the attainment ledger the
//     metrics JSON reports per function and rolls up per class.
//
// Everything here is plain data decided at the engine's serial epoch
// barrier; toss_lint's determinism auditor roots at this header so no
// unordered iteration can leak into per-class rollups.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "util/units.hpp"

namespace toss {

/// Why a request was shed instead of served.
enum class ShedCause : u8 {
  kQueueFull = 0,     ///< per-lane queue at max_lane_queue
  kGlobalOverload,    ///< global queue bound trimmed the longest lane queue
  kAdmissionClosed,   ///< the arbiter closed admission (ladder rung C)
  kDeadlineExpired,   ///< deadline already past when the request was popped
  kHostLost,          ///< owning host crashed; shed at the failover barrier
};

/// Number of ShedCause values; sizes every per-cause counter array.
inline constexpr size_t kShedCauseCount = 5;

const char* shed_cause_name(ShedCause cause);

/// The historical per-cause counter key in metrics JSON ("shed_queue_full",
/// "shed_queue_global", ...). Distinct from shed_cause_name() — the JSON
/// names predate the enum and are frozen for artifact consumers.
const char* shed_cause_json_key(ShedCause cause);

/// Per-function service class: its place in the degradation order end to
/// end (bronze-before-gold shedding and demotion, gold-first failover and
/// readmission). kNone (the default) is just another class: no SLO
/// derivation, ranked between bronze and gold, and it reads the gold
/// admission gate.
enum class QosClass : u8 {
  kNone = 0,  ///< unclassified: no SLO derivation
  kGold,      ///< protected: degraded last, readmitted first
  kBronze,    ///< best-effort: absorbs demotion and shedding first
};

inline constexpr size_t kQosClassCount = 3;

const char* qos_class_name(QosClass cls);

/// Parse a trace-column / CLI spelling ("gold", "bronze", "none", "");
/// nullopt for anything else.
std::optional<QosClass> parse_qos_class(const std::string& text);

/// Default SLO slowdown target a class implies when the registration does
/// not set one explicitly: gold tolerates 10% over the DRAM-only baseline,
/// bronze 60%. kNone has no SLO (returns 0).
double qos_default_slo_slowdown(QosClass cls);

/// Shedding / demotion priority: lower ranks degrade first. Bronze (0)
/// before unclassified (1) before gold (2); used by the global queue
/// bound, the arbiter's demotion victim order and failover placement.
int qos_shed_rank(QosClass cls);

/// A function's resolved service class: the class plus its effective SLO
/// slowdown target (explicit, or the class default). Travels with the lane
/// across migration and failover.
struct QosSpec {
  QosClass cls = QosClass::kNone;
  double slo_slowdown = 0;  ///< 0 = no SLO target

  bool set() const { return cls != QosClass::kNone; }
  bool operator==(const QosSpec&) const = default;
};

/// SLO-attainment ledger, per function or per class. Derived from the
/// per-lane OverloadStats (OverloadStats::attainment) — no counter of its
/// own.
struct QosAttainment {
  u64 offered = 0;    ///< arrivals that reached admission control
  u64 completed = 0;  ///< requests actually served
  u64 slo_met = 0;    ///< served within their deadline

  /// Fraction of offered work that met its SLO; 1 when nothing was offered.
  double attainment() const {
    return offered == 0
               ? 1.0
               : static_cast<double>(slo_met) / static_cast<double>(offered);
  }

  QosAttainment& operator+=(const QosAttainment& o) {
    offered += o.offered;
    completed += o.completed;
    slo_met += o.slo_met;
    return *this;
  }
  bool operator==(const QosAttainment&) const = default;
};

}  // namespace toss
