// Tests for the multi-host cluster layer (DESIGN.md §10): worst-fit
// placement by predicted fast-tier demand, K-epoch migration hysteresis,
// the migration ledger's thread-count determinism, per-host attribution in
// the metrics JSON (DESIGN.md §9), and the Azure-style trace loader that
// feeds cluster workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "platform/cluster.hpp"
#include "platform/engine.hpp"
#include "util/error.hpp"
#include "workloads/functions.hpp"

namespace toss {
namespace {

TossOptions fast_toss() {
  TossOptions opt;
  opt.stable_invocations = 4;
  opt.max_profiling_invocations = 30;
  return opt;
}

// ---------------------------------------------------------------------------
// Metrics JSON shape: a minimal reader that rejects malformed JSON.
// ---------------------------------------------------------------------------

/// Every key path of a JSON document, arrays collapsed to "[]" (e.g.
/// "functions[].overload.admitted"), plus one map per "functions[]" entry
/// from its relative key path to the scalar's text (strings unquoted).
struct JsonShape {
  std::set<std::string> keys;
  std::vector<std::map<std::string, std::string>> functions;

  std::set<std::string> top_level_keys() const {
    std::set<std::string> out;
    for (const std::string& k : keys)
      if (k.find_first_of(".[") == std::string::npos) out.insert(k);
    return out;
  }
  std::set<std::string> function_keys() const {
    std::set<std::string> out;
    for (const std::string& k : keys)
      if (k.rfind(kFunctionPrefix, 0) == 0) out.insert(k);
    return out;
  }
  std::vector<std::string> function_names() const {
    std::vector<std::string> out;
    for (const auto& f : functions) out.push_back(f.at("function"));
    return out;
  }

  static constexpr const char* kFunctionPrefix = "functions[].";
};

class JsonShapeReader {
 public:
  explicit JsonShapeReader(const std::string& text) : s_(text) {}

  /// nullopt unless the whole text is one well-formed JSON value.
  std::optional<JsonShape> read() {
    if (!value("")) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return shape_;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool string(std::string* out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      if (pos_ < s_.size()) out->push_back(s_[pos_++]);
    }
    return pos_++ < s_.size();
  }
  bool scalar(std::string* out) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '"') return string(out);
    for (const char* word : {"true", "false", "null"})
      if (s_.compare(pos_, std::char_traits<char>::length(word), word) == 0) {
        *out = word;
        pos_ += out->size();
        return true;
      }
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end == begin) return false;
    out->assign(begin, static_cast<size_t>(end - begin));
    pos_ += out->size();
    return true;
  }
  bool value(const std::string& path) {
    if (eat('{')) {
      if (path == "functions[]") shape_.functions.emplace_back();
      if (eat('}')) return true;
      do {
        std::string key;
        if (!string(&key) || !eat(':')) return false;
        const std::string child = path.empty() ? key : path + "." + key;
        shape_.keys.insert(child);
        if (!value(child)) return false;
      } while (eat(','));
      return eat('}');
    }
    if (eat('[')) {
      if (eat(']')) return true;
      do {
        if (!value(path + "[]")) return false;
      } while (eat(','));
      return eat(']');
    }
    std::string text;
    if (!scalar(&text)) return false;
    const std::string prefix = JsonShape::kFunctionPrefix;
    if (path.rfind(prefix, 0) == 0 && !shape_.functions.empty())
      shape_.functions.back()[path.substr(prefix.size())] = text;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
  JsonShape shape_;
};

JsonShape read_shape(const std::string& json) {
  std::optional<JsonShape> shape = JsonShapeReader(json).read();
  EXPECT_TRUE(shape.has_value()) << "malformed JSON: " << json;
  return shape.value_or(JsonShape{});
}

// ---------------------------------------------------------------------------
// place_on_host: the bin-packing step in isolation.
// ---------------------------------------------------------------------------

TEST(Placement, WorstFitPrefersMostHeadroom) {
  // Budget 100 per host. Loads {40, 10, 70}: all fit a demand of 20, so
  // worst-fit picks the emptiest host.
  EXPECT_EQ(place_on_host(20, {40, 10, 70}, 100), 1u);
}

TEST(Placement, TiesBreakTowardLowestIndex) {
  EXPECT_EQ(place_on_host(10, {50, 50}, 100), 0u);
  EXPECT_EQ(place_on_host(10, {0, 0, 0}, 100), 0u);
}

TEST(Placement, SkipsHostsWhereDemandDoesNotFit) {
  // Only host 0 has room for 30 (headroom 35 vs 5): worst-fit must not
  // pick host 1 even though rules like "least loaded after placement"
  // would.
  EXPECT_EQ(place_on_host(30, {65, 95}, 100), 0u);
}

TEST(Placement, FallsBackToLeastLoadedWhenNothingFits) {
  EXPECT_EQ(place_on_host(50, {90, 80}, 100), 1u);
  // Demand larger than any budget: still deterministic, least loaded.
  EXPECT_EQ(place_on_host(200, {10, 0}, 100), 1u);
}

TEST(Placement, PredictedDemandTracksPolicy) {
  const SystemConfig cfg = SystemConfig::paper_default();
  FunctionSpec spec = workloads::all_functions()[0];
  const u64 guest = spec.guest_bytes();

  const u64 vanilla = predicted_fast_demand(
      cfg, FunctionRegistration(spec).policy(PolicyKind::kVanilla).seed(7));
  EXPECT_EQ(vanilla, guest);  // baselines pin the whole image in DRAM

  const u64 toss = predicted_fast_demand(
      cfg, FunctionRegistration(spec)
               .policy(PolicyKind::kToss)
               .toss(fast_toss())
               .seed(7));
  EXPECT_GT(toss, 0u);
  EXPECT_LT(toss, guest);  // the Step-IV placement keeps a DRAM sliver
}

TEST(Placement, PerRankDemandCoversTheLadder) {
  FunctionSpec spec = workloads::all_functions()[0];
  const u64 guest = spec.guest_bytes();

  for (const SystemConfig& cfg :
       {SystemConfig::paper_default(), SystemConfig::cxl_host()}) {
    // Baselines: the whole image at rank 0, nothing deeper.
    const auto vanilla = predicted_tier_demand(
        cfg, FunctionRegistration(spec).policy(PolicyKind::kVanilla).seed(7));
    ASSERT_EQ(vanilla.size(), cfg.tier_count());
    EXPECT_EQ(vanilla[0], guest);
    for (size_t r = 1; r < vanilla.size(); ++r) EXPECT_EQ(vanilla[r], 0u);

    // TOSS: the per-rank shares partition the guest image, rank 0 matches
    // the fast-demand rollup, and something actually left the fast tier.
    const FunctionRegistration reg = FunctionRegistration(spec)
                                         .policy(PolicyKind::kToss)
                                         .toss(fast_toss())
                                         .seed(7);
    const auto tiered = predicted_tier_demand(cfg, reg);
    ASSERT_EQ(tiered.size(), cfg.tier_count());
    u64 total = 0;
    for (u64 b : tiered) total += b;
    EXPECT_EQ(total, guest);
    EXPECT_EQ(tiered[0], predicted_fast_demand(cfg, reg));
    EXPECT_GT(guest - tiered[0], 0u);
  }
}

// ---------------------------------------------------------------------------
// ClusterEngine: placement integration, migration, determinism.
// ---------------------------------------------------------------------------

TEST(Cluster, SpreadsEqualFunctionsAcrossHosts) {
  ClusterOptions opts;
  opts.hosts = 4;
  ClusterEngine cluster(opts);
  // kVanilla demand is exactly guest_bytes — identical for every clone, so
  // the worst-fit outcome is fully predictable.
  for (size_t i = 0; i < 8; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    ASSERT_TRUE(cluster
                    .add(FunctionRegistration(std::move(spec))
                             .policy(PolicyKind::kVanilla)
                             .seed(10 + i),
                         RequestGenerator::round_robin(4, 9))
                    .ok());
  }
  // Equal demands and worst-fit: exactly two functions per host, and the
  // predicted load never exceeds the (installed-DRAM) budget.
  EXPECT_EQ(cluster.function_count(), 8u);
  for (size_t h = 0; h < opts.hosts; ++h) {
    EXPECT_EQ(cluster.host_at(h).function_count(), 2u) << "host " << h;
    EXPECT_LE(cluster.predicted_load()[h], cluster.host_fast_budget_bytes(h));
  }
  EXPECT_EQ(cluster.host_of("float_operation#0"), 0u);
  EXPECT_EQ(cluster.host_of("float_operation#1"), 1u);
  EXPECT_EQ(cluster.host_of("nope"), ClusterEngine::npos);

  // Cluster-wide duplicate and unknown-function errors are typed.
  FunctionSpec dup = workloads::all_functions()[0];
  dup.name += "#0";
  EXPECT_EQ(cluster
                .add(FunctionRegistration(std::move(dup))
                         .policy(PolicyKind::kToss)
                         .seed(1),
                     {})
                .code(),
            ErrorCode::kDuplicateFunction);
  EXPECT_EQ(cluster.enqueue("nope", {}).code(), ErrorCode::kUnknownFunction);

  const ClusterReport report = cluster.run(2).value();
  EXPECT_EQ(report.total_invocations(), 8u * 4u);
  EXPECT_EQ(report.total_shed(), 0u);
  EXPECT_TRUE(report.migrations.empty());  // nothing was under pressure
  ASSERT_NE(report.find("float_operation#3"), nullptr);
  EXPECT_EQ(report.find("float_operation#3")->stats.invocations, 4u);
}

TEST(Cluster, InvalidRegistrationIsRejectedBeforePlacement) {
  // The demand estimate runs Step III on the registration's options, so
  // add() must validate them first: a bin count Step III cannot pack is a
  // typed error, as it is for PlatformEngine, and nothing is placed.
  ClusterOptions opts;
  opts.hosts = 2;
  ClusterEngine cluster(opts);
  ASSERT_TRUE(cluster
                  .add(FunctionRegistration(workloads::all_functions()[0])
                           .policy(PolicyKind::kToss)
                           .toss(fast_toss()),
                       RequestGenerator::round_robin(2, 5))
                  .ok());
  const std::vector<u64> load = cluster.predicted_load();
  for (const int bins : {0, -1}) {
    TossOptions bad = fast_toss();
    bad.bin_count = bins;
    const FunctionRegistration reg =
        FunctionRegistration(workloads::all_functions()[1])
            .policy(PolicyKind::kToss)
            .toss(bad);
    EXPECT_EQ(cluster.add(reg, RequestGenerator::round_robin(2, 5)).code(),
              ErrorCode::kInvalidOptions)
        << bins;
    EXPECT_EQ(PlatformEngine().add(reg, {}).code(), ErrorCode::kInvalidOptions)
        << bins;
    EXPECT_EQ(cluster.function_count(), 1u);
    EXPECT_EQ(cluster.predicted_load(), load);
  }
}

/// Probe the unconstrained tiered fast-tier footprint of the shared spec,
/// so budgets scale with the workload instead of hard-coding bytes.
u64 probe_tiered_fast_bytes() {
  auto probe = std::make_unique<PlatformEngine>(SystemConfig::paper_default(),
                                                PricingPlan{}, EngineOptions{});
  FunctionSpec spec = workloads::all_functions()[0];
  const std::string name = spec.name;
  EXPECT_TRUE(probe
                  ->add(FunctionRegistration(std::move(spec))
                            .policy(PolicyKind::kToss)
                            .toss(fast_toss())
                            .seed(42),
                        RequestGenerator::round_robin(40, 9))
                  .ok());
  EXPECT_TRUE(probe->run(1).ok());
  EXPECT_EQ(probe->toss_state(name)->phase(), TossPhase::kTiered);
  return probe->toss_state(name)->fast_resident_bytes();
}

/// The pressure fleet on two hosts with a budget that fits the steady
/// state but not one profiling guest image. Two quick-tiering candidates
/// land first (one per host, worst-fit); the hog — which profiles for its
/// whole long stream, pinning its guest image far past the budget — lands
/// last, co-located with whichever candidate predicted smaller. The hog's
/// host pins at close-admission, and its tiered roommate is the migration
/// candidate.
struct PressureFleet {
  std::unique_ptr<ClusterEngine> cluster;
  size_t hog_host = 0;        ///< host the hog (and the candidate) landed on
  std::string candidate;      ///< the tiered function expected to migrate
};

PressureFleet pressure_cluster(u64 budget, int pinned_epochs, u64 seed) {
  ClusterOptions opts;
  opts.hosts = 2;
  opts.migrate_after_pinned_epochs = pinned_epochs;
  opts.host_options.chunk = 2;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = budget;
  opts.host_options.arbiter.keepalive = false;
  PressureFleet fleet;
  fleet.cluster = std::make_unique<ClusterEngine>(opts);

  // The hog must stay in profiling (pinning its whole guest image) for its
  // entire stream: out-wait both the stability detector and the profiling
  // cap.
  TossOptions never_tiers = fast_toss();
  never_tiers.stable_invocations = 1000;
  never_tiers.max_profiling_invocations = 1000;
  const TossOptions toss_opts[] = {fast_toss(), fast_toss(), never_tiers};
  const size_t lengths[] = {60, 60, 80};
  for (size_t i = 0; i < 3; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    EXPECT_TRUE(fleet.cluster
                    ->add(FunctionRegistration(std::move(spec))
                              .policy(PolicyKind::kToss)
                              .toss(toss_opts[i])
                              .seed(42 + i),
                          RequestGenerator::round_robin(lengths[i], seed))
                    .ok());
  }
  // The first two adds always split across the empty hosts; the third
  // co-locates with the smaller-demand candidate.
  EXPECT_EQ(fleet.cluster->host_of("float_operation#0"), 0u);
  EXPECT_EQ(fleet.cluster->host_of("float_operation#1"), 1u);
  fleet.hog_host = fleet.cluster->host_of("float_operation#2");
  fleet.candidate = "float_operation#" + std::to_string(fleet.hog_host);
  return fleet;
}

TEST(Cluster, MigratesLargestTieredFunctionAfterKPinnedEpochs) {
  const u64 tiered = probe_tiered_fast_bytes();
  ASSERT_GT(tiered, 0u);
  const u64 budget = 3 * tiered;  // fits 2 steady lanes, not a profiling one
  constexpr int kPinned = 3;

  PressureFleet fleet = pressure_cluster(budget, kPinned, 9);
  const ClusterReport report = fleet.cluster->run(2).value();
  const size_t dest = 1 - fleet.hog_host;

  ASSERT_GE(report.migrations.size(), 1u);
  const MigrationEvent& ev = report.migrations.front();
  EXPECT_EQ(ev.function, fleet.candidate);  // the only tiered candidate
  EXPECT_EQ(ev.from_host, "host" + std::to_string(fleet.hog_host));
  EXPECT_EQ(ev.to_host, "host" + std::to_string(dest));
  EXPECT_GE(ev.epoch, static_cast<u64>(kPinned));
  EXPECT_GT(ev.moved_bytes, 0u);
  EXPECT_GT(ev.transfer_ns, 0);
  EXPECT_EQ(fleet.cluster->host_of(fleet.candidate), dest);

  // The move lost no work: the migrated lane finished its stream on the
  // destination, and its ledger traveled with it.
  EXPECT_EQ(report.total_invocations(), 60u + 60u + 80u);
  EXPECT_EQ(report.total_shed(), 0u);
  const FunctionReport* moved = report.find(fleet.candidate);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->stats.invocations, 60u);
  EXPECT_NE(fleet.cluster->host_at(dest).lane_host(fleet.candidate), nullptr);
  EXPECT_EQ(fleet.cluster->host_at(fleet.hog_host).lane_host(fleet.candidate),
            nullptr);

  // The JSON rollup carries the cluster block and the migration ledger.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":" +
                      std::to_string(EngineReport::kJsonSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"cluster\":{"), std::string::npos);
  EXPECT_NE(json.find("\"migration_events\":["), std::string::npos);
  EXPECT_NE(json.find("\"host\":\"host1\""), std::string::npos);
  read_shape(json);

  // Each host's JSON names exactly the functions of its report, so the
  // moved lane is listed once, under its current host, with its whole
  // history.
  size_t listed = 0;
  for (const ClusterHostReport& h : report.hosts) {
    const JsonShape shape = read_shape(h.report.to_json());
    std::vector<std::string> names;
    for (const FunctionReport& f : h.report.functions) names.push_back(f.name);
    EXPECT_EQ(shape.function_names(), names) << h.host;
    for (const auto& f : shape.functions) {
      if (f.at("function") != fleet.candidate) continue;
      ++listed;
      EXPECT_EQ(h.host, "host" + std::to_string(dest));
      EXPECT_EQ(f.at("invocations"), "60");
      EXPECT_EQ(f.at("overload.admitted"), "60");
    }
  }
  EXPECT_EQ(listed, 1u);
}

TEST(Cluster, BareEngineAndQosClusterHostJsonShareOneShape) {
  // Schema 7 has no conditional key: a bare engine's host (unclassed, no
  // health governance) and a cluster host with QoS-classed lanes write the
  // same top-level and per-function keys.
  PlatformEngine engine;
  ASSERT_TRUE(engine
                  .add(FunctionRegistration(workloads::all_functions()[0])
                           .policy(PolicyKind::kToss)
                           .toss(fast_toss()),
                       RequestGenerator::round_robin(6, 3))
                  .ok());
  const JsonShape bare = read_shape(engine.run(1).value().to_json());
  ASSERT_EQ(bare.functions.size(), 1u);
  EXPECT_EQ(bare.functions[0].at("qos.class"), "none");

  ClusterOptions opts;
  opts.hosts = 2;
  ClusterEngine cluster(opts);
  const QosClass classes[] = {QosClass::kGold, QosClass::kBronze};
  for (size_t i = 0; i < 2; ++i)
    ASSERT_TRUE(cluster
                    .add(FunctionRegistration(workloads::all_functions()[i])
                             .policy(PolicyKind::kToss)
                             .toss(fast_toss())
                             .qos(classes[i]),
                         RequestGenerator::round_robin(6, 4))
                    .ok());
  const ClusterReport report = cluster.run(1).value();
  EXPECT_TRUE(read_shape(report.to_json()).keys.count("cluster.qos[].class"));
  size_t classed = 0;
  for (const ClusterHostReport& h : report.hosts) {
    const JsonShape shape = read_shape(h.report.to_json());
    EXPECT_EQ(shape.top_level_keys(), bare.top_level_keys()) << h.host;
    EXPECT_EQ(shape.function_keys(), bare.function_keys()) << h.host;
    for (const auto& f : shape.functions)
      if (f.at("qos.class") != "none") ++classed;
  }
  EXPECT_EQ(classed, 2u);
}

TEST(Cluster, HysteresisHoldsMigrationBelowKPinnedEpochs) {
  const u64 budget = 3 * probe_tiered_fast_bytes();
  // Same pressure, but K larger than the run: the cluster must ride out
  // the closure without moving anyone.
  PressureFleet patient = pressure_cluster(budget, 100000, 9);
  const ClusterReport report = patient.cluster->run(2).value();
  EXPECT_TRUE(report.migrations.empty());
  EXPECT_EQ(report.total_invocations(), 60u + 60u + 80u);
}

TEST(Cluster, MigratingTheLastTieredLaneLeavesNoCandidateBehind) {
  const u64 tiered = probe_tiered_fast_bytes();
  ASSERT_GT(tiered, 0u);
  // The candidate is the hog host's *only* tiered lane. After it migrates
  // the host stays pinned (the hog keeps profiling past the budget) but
  // has no candidate left: the cluster must ride the pressure out without
  // inventing moves, losing the hog's work, or wedging the epoch loop.
  PressureFleet fleet = pressure_cluster(3 * tiered, 2, 9);
  const ClusterReport report = fleet.cluster->run(2).value();
  const size_t dest = 1 - fleet.hog_host;

  ASSERT_GE(report.migrations.size(), 1u);
  EXPECT_EQ(report.migrations[0].function, fleet.candidate);
  for (const MigrationEvent& ev : report.migrations)
    EXPECT_EQ(ev.from_host, "host" + std::to_string(fleet.hog_host))
        << "only the hog host ever has a candidate to give up";
  EXPECT_EQ(fleet.cluster->host_of(fleet.candidate), dest);
  EXPECT_EQ(fleet.cluster->host_at(fleet.hog_host).lane_host(fleet.candidate),
            nullptr);
  EXPECT_EQ(report.total_invocations(), 60u + 60u + 80u);
  EXPECT_EQ(report.total_shed(), 0u);
}

TEST(Cluster, MigrationLandsOnHostThatClosesAdmissionSameEpoch) {
  const u64 tiered = probe_tiered_fast_bytes();
  ASSERT_GT(tiered, 0u);
  // Both hosts carry a profiling hog, so any migration destination is
  // itself at (or heading into) the close-admission rung when the lane
  // lands. The adopted lane's already-admitted queue must still drain
  // there — admission closure only gates new arrivals — and no request
  // may be lost to the double pressure.
  ClusterOptions opts;
  opts.hosts = 2;
  opts.migrate_after_pinned_epochs = 2;
  opts.host_options.chunk = 2;
  opts.host_options.arbiter.enabled = true;
  opts.host_options.arbiter.fast_budget_bytes = 3 * tiered;
  opts.host_options.arbiter.keepalive = false;
  ClusterEngine cluster(opts);

  TossOptions never_tiers = fast_toss();
  never_tiers.stable_invocations = 1000;
  never_tiers.max_profiling_invocations = 1000;
  const size_t lengths[] = {60, 60, 80, 80};
  for (size_t i = 0; i < 4; ++i) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name += "#" + std::to_string(i);
    ASSERT_TRUE(cluster
                    .add(FunctionRegistration(std::move(spec))
                             .policy(PolicyKind::kToss)
                             .toss(i < 2 ? fast_toss() : never_tiers)
                             .seed(42 + i),
                         RequestGenerator::round_robin(lengths[i], 9))
                    .ok());
  }
  // Worst-fit splits the candidates and then the hogs: one of each per
  // host, so both arbiters pin.
  ASSERT_NE(cluster.host_of("float_operation#2"),
            cluster.host_of("float_operation#3"));

  const ClusterReport report = cluster.run(2).value();
  ASSERT_GE(report.migrations.size(), 1u);
  // Both hosts were pinned, so the destination of the first move had its
  // own close-admission streak — visible in its arbiter ledger.
  const size_t dest_host =
      report.migrations[0].to_host == "host0" ? 0u : 1u;
  EXPECT_FALSE(report.hosts[dest_host].report.arbiter.events.empty());
  // Exactly-once despite landing behind a closed admission gate.
  EXPECT_EQ(report.total_invocations(), 60u + 60u + 80u + 80u);
  EXPECT_EQ(report.total_shed(), 0u);
}

TEST(Cluster, LedgersAreBitIdenticalAcrossThreadCounts) {
  const u64 budget = 3 * probe_tiered_fast_bytes();
  for (u64 seed = 9; seed <= 11; ++seed) {
    PressureFleet serial = pressure_cluster(budget, 3, seed);
    const ClusterReport s = serial.cluster->run(1).value();
    PressureFleet parallel = pressure_cluster(budget, 3, seed);
    const ClusterReport p = parallel.cluster->run(4).value();

    EXPECT_TRUE(s == p) << "seed " << seed;
    for (const ClusterHostReport& h : p.hosts)
      EXPECT_EQ(h.report.serialization_violations, 0u) << h.host;
  }
}

TEST(Cluster, ReportEqualityComparesEveryNestedField) {
  // The determinism contract is ClusterReport::operator==, so it must see a
  // change anywhere in the report: change one field at a time, at each
  // nesting level, in copies of a pressure-fleet report that migrated.
  PressureFleet fleet =
      pressure_cluster(3 * probe_tiered_fast_bytes(), 3, 9);
  ClusterReport report = fleet.cluster->run(2).value();
  const size_t h = fleet.hog_host;
  EngineReport& hog_host = report.hosts[h].report;
  ASSERT_FALSE(report.migrations.empty());
  ASSERT_FALSE(hog_host.arbiter.events.empty());
  ASSERT_FALSE(hog_host.metrics.tiers.empty());
  ASSERT_FALSE(hog_host.functions.empty());
  ASSERT_FALSE(hog_host.functions[0].outcomes.empty());
  // The fleet sheds nothing, so both sides get one shed event to change.
  ASSERT_EQ(report.total_shed(), 0u);
  hog_host.functions[0].shed_events.push_back(
      ShedEvent{0, ShedCause::kQueueFull, ms(1)});

  const ClusterReport untouched = report;
  EXPECT_TRUE(untouched == report);
  const auto differs = [&](const std::function<void(EngineReport&)>& change) {
    ClusterReport changed = report;
    change(changed.hosts[h].report);
    return !(changed == report);
  };
  EXPECT_TRUE(differs([](EngineReport& r) { ++r.arbiter.events[0].rung; }));
  EXPECT_TRUE(
      differs([](EngineReport& r) { ++r.metrics.tiers[0].resident_bytes; }));
  EXPECT_TRUE(differs(
      [](EngineReport& r) { r.functions[0].shed_events[0].sim_ns += 1; }));
  EXPECT_TRUE(differs(
      [](EngineReport& r) { ++r.functions[0].outcomes[0].recovery.retries; }));
  EXPECT_TRUE(differs(
      [](EngineReport& r) { r.functions[0].stats.total_ns.record(ms(1)); }));
  ClusterReport moved = report;
  moved.migrations[0].transfer_ns += 1;
  EXPECT_FALSE(moved == report);
}

// ---------------------------------------------------------------------------
// RequestGenerator::from_trace: the Azure-style CSV loader.
// ---------------------------------------------------------------------------

std::string write_trace(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

TEST(Trace, LoadsStreamsInFirstAppearanceOrder) {
  const std::string path = write_trace(
      "toss_trace_ok.csv",
      "function_id,arrival_ns,deadline_ns,input,seed\r\n"
      "beta,100,0,2,7\n"
      "alpha,50,1000\n"
      "\n"
      "beta,200,0\n"
      "alpha,50,1000\n");
  const auto streams = RequestGenerator::from_trace(path).value();
  ASSERT_EQ(streams.size(), 2u);

  EXPECT_EQ(streams[0].function, "beta");
  ASSERT_EQ(streams[0].requests.size(), 2u);
  EXPECT_EQ(streams[0].requests[0].input, 2);
  EXPECT_EQ(streams[0].requests[0].seed, 7u);
  EXPECT_EQ(streams[0].requests[0].arrival_ns, 100);
  // Defaults: inputs round-robin per stream and seeds come from a
  // deterministic per-function generator, so explicit values interleave
  // with generated ones reproducibly.
  EXPECT_EQ(streams[0].requests[1].input, 0);
  EXPECT_EQ(streams[0].requests[1].seed, Rng(mix_seed(42, "beta")).next());

  EXPECT_EQ(streams[1].function, "alpha");
  ASSERT_EQ(streams[1].requests.size(), 2u);
  EXPECT_EQ(streams[1].requests[0].deadline_ns, 1000);
  EXPECT_EQ(streams[1].requests[0].input, 0);
  EXPECT_EQ(streams[1].requests[1].input, 1);
  // Equal arrivals are fine; only regressions are rejected.
  EXPECT_EQ(streams[1].requests[1].arrival_ns, 50);
}

TEST(Trace, ErrorsAreTypedAndNameTheLine) {
  EXPECT_EQ(RequestGenerator::from_trace("/nonexistent/t.csv").code(),
            ErrorCode::kTransientIo);

  struct Case {
    const char* name;
    const char* body;
    const char* needle;
  };
  const Case cases[] = {
      {"fields.csv", "f,1\n", "got 2 fields"},
      {"arrival.csv", "f,-5,0\n", "not a non-negative number"},
      {"deadline.csv", "f,5,x\n", "not a non-negative number"},
      {"input.csv", "f,5,0,9\n", "outside [0, 4)"},
      {"input_frac.csv", "f,5,0,1.5\n", "outside [0, 4)"},
      {"seed.csv", "f,5,0,1,-2\n", "not a non-negative number"},
      {"order.csv", "f,100,0\nf,50,0\n", "arrivals out of order"},
      {"empty_id.csv", ",5,0\n", "empty function_id"},
      // A nonzero deadline earlier than the row's own arrival is dead on
      // admission — rejected at load, not silently shed at serve time.
      {"dead_on_arrival.csv", "f,100,99\n", "precedes arrival_ns"},
      {"qos_bad.csv", "f,5,0,1,2,silver\n", "not one of none/gold/bronze"},
      {"qos_conflict.csv", "f,5,0,1,2,gold\nf,6,0,1,2,bronze\n",
       "conflicting qos class"},
  };
  for (const Case& c : cases) {
    const auto result =
        RequestGenerator::from_trace(write_trace(c.name, c.body));
    EXPECT_EQ(result.code(), ErrorCode::kInvalidRequest) << c.name;
    EXPECT_NE(result.message().find(c.needle), std::string::npos)
        << c.name << ": " << result.message();
  }
  // The line number in the diagnostic is 1-based and counts the header.
  const auto bad = RequestGenerator::from_trace(
      write_trace("line.csv", "function_id,arrival_ns,deadline_ns\nf,1,0\nf,0,0\n"));
  EXPECT_NE(bad.message().find("line.csv:3:"), std::string::npos)
      << bad.message();
}

TEST(Trace, DeadlineEqualToArrivalIsAdmissible) {
  // The boundary case of the dead-on-admission check: a request due the
  // instant it arrives is tight but serviceable, so the row loads.
  const std::string path =
      write_trace("toss_trace_edge.csv", "f,100,100\nf,200,0\n");
  const auto streams = RequestGenerator::from_trace(path).value();
  ASSERT_EQ(streams.size(), 1u);
  ASSERT_EQ(streams[0].requests.size(), 2u);
  EXPECT_EQ(streams[0].requests[0].deadline_ns, 100);
  EXPECT_EQ(streams[0].requests[1].deadline_ns, 0);
}

TEST(Trace, QosColumnNamesTheServiceClass) {
  // The optional 6th column carries the function's service class. One
  // class per function: later rows may repeat it or leave it blank, and a
  // function that never names one stays kNone.
  const std::string path = write_trace(
      "toss_trace_qos.csv",
      "function_id,arrival_ns,deadline_ns,input,seed,qos\n"
      "gold_fn,0,0,1,2,gold\n"
      "bronze_fn,0,0,1,2,bronze\n"
      "plain_fn,0,0,1,2,\n"
      "gold_fn,10,0,1,2,gold\n"
      "bronze_fn,10,0\n"
      "none_fn,0,0,1,2,none\n");
  const auto streams = RequestGenerator::from_trace(path).value();
  ASSERT_EQ(streams.size(), 4u);
  EXPECT_EQ(streams[0].function, "gold_fn");
  EXPECT_EQ(streams[0].qos, QosClass::kGold);
  EXPECT_EQ(streams[1].function, "bronze_fn");
  EXPECT_EQ(streams[1].qos, QosClass::kBronze);
  EXPECT_EQ(streams[2].function, "plain_fn");
  EXPECT_EQ(streams[2].qos, QosClass::kNone);
  EXPECT_EQ(streams[3].function, "none_fn");
  EXPECT_EQ(streams[3].qos, QosClass::kNone);
}

TEST(Trace, FeedsAClusterEndToEnd) {
  // A trace drives the cluster: streams arrive pre-stamped, the overload
  // scheduler (deadlines on) serves them, and every request is accounted.
  const std::string path = write_trace(
      "toss_trace_cluster.csv",
      "alpha,0,0\nbeta,0,0\nalpha,1000,0\nbeta,1000,0\n"
      "alpha,2000,0\nbeta,2000,0\nalpha,3000,0\nbeta,3000,0\n");
  const auto streams = RequestGenerator::from_trace(path).value();
  ASSERT_EQ(streams.size(), 2u);

  ClusterOptions opts;
  opts.hosts = 2;
  opts.host_options.max_lane_queue = 16;
  ClusterEngine cluster(opts);
  for (const TraceStream& s : streams) {
    FunctionSpec spec = workloads::all_functions()[0];
    spec.name = s.function;
    ASSERT_TRUE(cluster
                    .add(FunctionRegistration(std::move(spec))
                             .policy(PolicyKind::kToss)
                             .toss(fast_toss())
                             .seed(3),
                         s.requests)
                    .ok());
  }
  const ClusterReport report = cluster.run(2).value();
  EXPECT_EQ(report.total_invocations() + report.total_shed(), 8u);
  ASSERT_NE(report.find("alpha"), nullptr);
  ASSERT_NE(report.find("beta"), nullptr);
}

}  // namespace
}  // namespace toss
