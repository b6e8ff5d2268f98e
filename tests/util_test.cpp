// Tests for src/util: rng determinism and distributions, streaming stats,
// table rendering, unit formatting, the shared retry loop.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace toss {
namespace {

TEST(FaultSites, NameTableRoundTripsAtCompileTime) {
  // The name table, the derived count and the enum must stay in sync: a
  // new FaultSite without a name (or a stale count) fails right here at
  // compile time, not at a distant runtime lookup.
  static_assert(kFaultSiteNames.size() == kFaultSiteCount);
  static_assert(kFaultSiteCount ==
                static_cast<size_t>(FaultSite::kMigrationAbort) + 1);
  static_assert([] {
    for (size_t i = 0; i < kFaultSiteCount; ++i) {
      const auto site = static_cast<FaultSite>(i);
      const auto back = fault_site_from_name(fault_site_name(site));
      if (!back.has_value() || *back != site) return false;
    }
    return true;
  }());
  // Runtime pass too, so a regression names the offending site.
  for (size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    EXPECT_EQ(fault_site_from_name(fault_site_name(site)), site)
        << fault_site_name(site);
  }
  EXPECT_FALSE(fault_site_from_name("no_such_site").has_value());
  EXPECT_FALSE(fault_site_from_name("").has_value());
}

// RetryPolicy::run is the one bounded-retry loop behind every recovery
// rung (restore, boot, persist, migration transfer); these cases pin its
// counting rules against hand-computed expectations.

TEST(RetryPolicy, TwoTransientFaultsThenSuccess) {
  const RetryPolicy policy;  // 3 attempts
  Rng rng(7);
  RecoveryInfo rc;
  int calls = 0;
  const RetryStatus status = policy.run(rng, &rc, [&] {
    if (++calls <= 2) throw Error(ErrorCode::kTransientIo, "torn write");
  });
  EXPECT_EQ(status, RetryStatus::kOk);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(rc.retries, 2u);
  EXPECT_EQ(rc.faults_seen, 2u);
  // Backoff before retry i is backoff_ns(i), drawn in retry order from the
  // caller's stream.
  Rng oracle(7);
  Nanos expected = policy.backoff_ns(0, oracle);
  expected += policy.backoff_ns(1, oracle);
  EXPECT_GT(expected, 0);
  EXPECT_EQ(rc.overhead_ns, expected);
}

TEST(RetryPolicy, AlwaysTransientExhaustsAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  Rng rng(1);
  RecoveryInfo rc;
  int calls = 0;
  const RetryStatus status = policy.run(rng, &rc, [&] {
    ++calls;
    throw Error(ErrorCode::kExecutionCrashed, "guest crash");
  });
  EXPECT_EQ(status, RetryStatus::kExhausted);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(rc.faults_seen, 4u);
  EXPECT_EQ(rc.retries, 3u);
}

TEST(RetryPolicy, NonTransientErrorStopsAtOnce) {
  const RetryPolicy policy;
  Rng rng(1);
  RecoveryInfo rc;
  int calls = 0;
  const RetryStatus status = policy.run(rng, &rc, [&] {
    ++calls;
    throw Error(ErrorCode::kSnapshotCorrupted, "bad checksum");
  });
  EXPECT_EQ(status, RetryStatus::kBroken);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(rc.faults_seen, 1u);
  EXPECT_EQ(rc.retries, 0u);
  EXPECT_EQ(rc.overhead_ns, 0);
}

TEST(RetryPolicy, NullRecoveryDrawsNoJitter) {
  const RetryPolicy policy;
  Rng rng(99);
  int calls = 0;
  const RetryStatus status = policy.run(rng, nullptr, [&] {
    ++calls;
    throw Error(ErrorCode::kTransientIo, "torn write");
  });
  EXPECT_EQ(status, RetryStatus::kExhausted);
  EXPECT_EQ(calls, policy.max_attempts);
  Rng untouched(99);
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(RetryPolicy, ZeroMaxAttemptsRunsOnce) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  Rng rng(3);
  RecoveryInfo rc;
  int calls = 0;
  const RetryStatus failed = policy.run(rng, &rc, [&] {
    ++calls;
    throw Error(ErrorCode::kTransientIo, "torn write");
  });
  EXPECT_EQ(failed, RetryStatus::kExhausted);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(rc.faults_seen, 1u);
  EXPECT_EQ(rc.retries, 0u);
  const RetryStatus ok = policy.run(rng, &rc, [&] { ++calls; });
  EXPECT_EQ(ok, RetryStatus::kOk);
  EXPECT_EQ(calls, 2);
}

TEST(Units, PageMath) {
  EXPECT_EQ(pages_for_bytes(0), 0u);
  EXPECT_EQ(pages_for_bytes(1), 1u);
  EXPECT_EQ(pages_for_bytes(kPageSize), 1u);
  EXPECT_EQ(pages_for_bytes(kPageSize + 1), 2u);
  EXPECT_EQ(bytes_for_pages(3), 3 * kPageSize);
  EXPECT_EQ(pages_for_bytes(128 * kMiB), 32768u);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(us(1), 1e3);
  EXPECT_DOUBLE_EQ(ms(1), 1e6);
  EXPECT_DOUBLE_EQ(sec(1), 1e9);
  EXPECT_DOUBLE_EQ(to_ms(ms(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_sec(sec(0.25)), 0.25);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(format_bytes(kGiB), "1.00 GiB");
  EXPECT_EQ(format_nanos(500), "500.0 ns");
  EXPECT_EQ(format_nanos(us(3)), "3.000 us");
  EXPECT_EQ(format_nanos(ms(4)), "4.000 ms");
  EXPECT_EQ(format_nanos(sec(1.5)), "1.500 s");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (u64 bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  OnlineStats st;
  for (int i = 0; i < 20000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.05);
  EXPECT_NEAR(st.stddev(), 1.0, 0.05);
}

TEST(Rng, JitterCentredAndPositive) {
  Rng rng(13);
  OnlineStats st;
  for (int i = 0; i < 20000; ++i) {
    const double j = rng.jitter(0.1);
    EXPECT_GT(j, 0.0);
    st.add(j);
  }
  EXPECT_NEAR(st.mean(), 1.0, 0.02);
  EXPECT_DOUBLE_EQ(Rng(5).jitter(0.0), 1.0);
}

TEST(Rng, MixSeedSensitiveToBoth) {
  EXPECT_NE(mix_seed(1, u64{2}), mix_seed(2, u64{1}));
  EXPECT_NE(mix_seed(1, "abc"), mix_seed(1, "abd"));
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfSampler z(10, 0.0);
  Rng rng(17);
  std::vector<int> hist(10, 0);
  for (int i = 0; i < 10000; ++i) ++hist[z.sample(rng)];
  for (int c : hist) EXPECT_NEAR(c, 1000, 200);
}

TEST(Zipf, SkewPrefersLowRanks) {
  ZipfSampler z(1000, 0.99);
  Rng rng(19);
  u64 low = 0, total = 10000;
  for (u64 i = 0; i < total; ++i)
    if (z.sample(rng) < 10) ++low;
  // With theta ~1 the top-10 of 1000 items should attract a large share.
  EXPECT_GT(low, total / 5);
}

TEST(Zipf, SamplesInRange) {
  ZipfSampler z(37, 0.7);
  Rng rng(21);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(z.sample(rng), 37u);
}

TEST(OnlineStats, MatchesNaive) {
  Rng rng(23);
  std::vector<double> xs;
  OnlineStats st;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-5, 5);
    xs.push_back(x);
    st.add(x);
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(st.mean(), mean, 1e-9);
  EXPECT_NEAR(st.variance(), var, 1e-9);
  EXPECT_EQ(st.count(), xs.size());
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(29);
  OnlineStats whole, a, b;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal(3, 2);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_DOUBLE_EQ(st.mean(), 0.0);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 1);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 10);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile_of({}, 50), 0.0);
}

TEST(Stats, GeomeanAndExtremes) {
  std::vector<double> xs{1, 4, 16};
  EXPECT_NEAR(geomean_of(xs), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(max_of(xs), 16);
  EXPECT_DOUBLE_EQ(min_of(xs), 1);
  EXPECT_NEAR(mean_of(xs), 7.0, 1e-9);
}

TEST(Table, RendersAllRowsAndHeaders) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta"});  // short row padded
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_f(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.123, 1), "12.3%");
  EXPECT_EQ(fmt_x(1.78), "1.78x");
}

}  // namespace
}  // namespace toss
