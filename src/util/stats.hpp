// Small statistics helpers shared by the profiler, benches and tests.
#pragma once

#include <span>
#include <vector>

#include "util/units.hpp"

namespace toss {

/// Streaming mean/variance/min/max (Welford).
class OnlineStats {
 public:
  void add(double x);

  u64 count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const OnlineStats& o);

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

double mean_of(std::span<const double> xs);
double geomean_of(std::span<const double> xs);
double max_of(std::span<const double> xs);
double min_of(std::span<const double> xs);

/// Linear-interpolated percentile; p in [0, 100]. Copies + sorts.
double percentile_of(std::span<const double> xs, double p);

}  // namespace toss
