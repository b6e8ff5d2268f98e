#include "platform/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "platform/host.hpp"

namespace toss {

namespace {

int bucket_index(Nanos t) {
  const double clamped = std::max(t, 0.0);
  const u64 ns = static_cast<u64>(std::min(clamped, 1e18));
  if (ns <= 1) return 0;
  const int idx = std::bit_width(ns) - 1;  // floor(log2(ns))
  return std::min(idx, LatencyHistogram::kBucketCount - 1);
}

}  // namespace

void LatencyHistogram::record(Nanos t) {
  ++buckets_[static_cast<size_t>(bucket_index(t))];
  min_ = count_ == 0 ? t : std::min(min_, t);
  max_ = count_ == 0 ? t : std::max(max_, t);
  sum_ += t;
  ++count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const u64 rank = static_cast<u64>(
      std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  u64 seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen >= std::max<u64>(rank, 1)) {
      const double upper = std::ldexp(1.0, i + 1);  // 2^(i+1) ns
      return std::min(upper, max_);
    }
  }
  return max_;
}

std::string qos_rollup_json(QosClass cls, const QosAttainment& a) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"class\":\"%s\",\"offered\":%llu,\"completed\":%llu,"
                "\"slo_met\":%llu,\"attainment\":%.6f}",
                qos_class_name(cls), static_cast<unsigned long long>(a.offered),
                static_cast<unsigned long long>(a.completed),
                static_cast<unsigned long long>(a.slo_met), a.attainment());
  return buf;
}

namespace {

void append_histogram(std::string& out, const char* key,
                      const LatencyHistogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%llu,\"mean_ns\":%.1f,\"min_ns\":%.1f,"
                "\"max_ns\":%.1f,\"p50_ns\":%.1f,\"p95_ns\":%.1f,"
                "\"p99_ns\":%.1f}",
                key, static_cast<unsigned long long>(h.count()), h.mean(),
                h.min(), h.max(), h.percentile(50), h.percentile(95),
                h.percentile(99));
  out += buf;
}

void append_function(std::string& out, const FunctionReport& f) {
  const FunctionStats& s = f.stats;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"function\":\"%s\",\"invocations\":%llu,"
                "\"cold_boots\":%llu,\"phase_invocations\":[%llu,%llu,"
                "%llu],\"total_charge\":%.6e,",
                f.name.c_str(), static_cast<unsigned long long>(s.invocations),
                static_cast<unsigned long long>(s.cold_boots),
                static_cast<unsigned long long>(s.phase_invocations[0]),
                static_cast<unsigned long long>(s.phase_invocations[1]),
                static_cast<unsigned long long>(s.phase_invocations[2]),
                s.total_charge);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"recovery\":{\"faults\":%llu,\"retries\":%llu,"
                "\"fallback_single_tier\":%llu,\"fallback_cold_boot\":%llu,"
                "\"quarantines\":%llu,\"regenerations\":%llu,"
                "\"breaker_suspended\":%llu,\"incomplete\":%llu},",
                static_cast<unsigned long long>(s.recovered_faults),
                static_cast<unsigned long long>(s.recovery_retries),
                static_cast<unsigned long long>(s.fallbacks_single_tier),
                static_cast<unsigned long long>(s.fallbacks_cold_boot),
                static_cast<unsigned long long>(s.quarantines),
                static_cast<unsigned long long>(s.regenerations),
                static_cast<unsigned long long>(s.breaker_suspended),
                static_cast<unsigned long long>(s.incomplete));
  out += buf;
  // The per-cause keys are the historical names, one per ShedCause,
  // emitted in enum order (shed_cause_json_key).
  const OverloadStats& o = f.overload;
  out += "\"overload\":{\"admitted\":" + std::to_string(o.admitted) + ",";
  for (size_t c = 0; c < kShedCauseCount; ++c) {
    out += "\"";
    out += shed_cause_json_key(static_cast<ShedCause>(c));
    out += "\":" + std::to_string(o.shed[c]) + ",";
  }
  std::snprintf(buf, sizeof(buf),
                "\"deadline_misses\":%llu,"
                "\"demotions\":%llu,\"promotions\":%llu,"
                "\"watchdog_trips\":%llu},",
                static_cast<unsigned long long>(o.deadline_misses),
                static_cast<unsigned long long>(o.demotions),
                static_cast<unsigned long long>(o.promotions),
                static_cast<unsigned long long>(o.watchdog_trips));
  out += buf;
  const QosAttainment slo = o.attainment();
  std::snprintf(buf, sizeof(buf),
                "\"qos\":{\"class\":\"%s\",\"slo_slowdown\":%g,"
                "\"offered\":%llu,\"completed\":%llu,\"slo_met\":%llu,"
                "\"attainment\":%.6f},",
                qos_class_name(f.qos.cls), f.qos.slo_slowdown,
                static_cast<unsigned long long>(slo.offered),
                static_cast<unsigned long long>(slo.completed),
                static_cast<unsigned long long>(slo.slo_met),
                slo.attainment());
  out += buf;
  append_histogram(out, "total_ns", s.total_ns);
  out += ",";
  append_histogram(out, "setup_ns", s.setup_ns);
  out += ",";
  append_histogram(out, "exec_ns", s.exec_ns);
  out += "}";
}

}  // namespace

std::string EngineReport::to_json() const {
  std::string out = "{\"schema\":" + std::to_string(kJsonSchemaVersion) +
                    ",\"host\":\"" + metrics.host + "\",\"tiers\":[";
  for (size_t i = 0; i < metrics.tiers.size(); ++i) {
    const TierRollup& t = metrics.tiers[i];
    if (i) out += ",";
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"tier\":\"%s\",\"resident_bytes\":%llu,"
                  "\"capacity_bytes\":%llu,\"occupancy\":%.6f}",
                  t.tier.c_str(),
                  static_cast<unsigned long long>(t.resident_bytes),
                  static_cast<unsigned long long>(t.capacity_bytes),
                  t.occupancy);
    out += buf;
  }
  const HostHealthRollup& health = metrics.health;
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "],\"health\":{\"lost\":%s,\"quarantined\":%s,"
                "\"brownouts\":%llu,\"quarantines\":%llu,"
                "\"readmissions\":%llu,\"lanes_failed_over\":%llu},\"qos\":[",
                health.lost ? "true" : "false",
                health.quarantined ? "true" : "false",
                static_cast<unsigned long long>(health.brownouts),
                static_cast<unsigned long long>(health.quarantines),
                static_cast<unsigned long long>(health.readmissions),
                static_cast<unsigned long long>(health.lanes_failed_over));
  out += buf;
  for (size_t i = 0; i < metrics.qos.size(); ++i) {
    if (i) out += ",";
    out += qos_rollup_json(metrics.qos[i].cls, metrics.qos[i].ledger);
  }
  out += "],\"functions\":[";
  for (size_t i = 0; i < functions.size(); ++i) {
    if (i) out += ",";
    append_function(out, functions[i]);
  }
  out += "],\"total_invocations\":" + std::to_string(total_invocations()) +
         "}";
  return out;
}

}  // namespace toss
