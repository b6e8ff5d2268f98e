#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace toss {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const u64 n = n_ + o.n_;
  m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                     static_cast<double>(o.n_) / static_cast<double>(n);
  mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
  sum_ += o.sum_;
  n_ = n;
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += std::log(std::max(x, 1e-300));
  return std::exp(s / static_cast<double>(xs.size()));
}

double max_of(std::span<const double> xs) {
  double m = xs.empty() ? 0.0 : xs[0];
  for (double x : xs) m = std::max(m, x);
  return m;
}

double min_of(std::span<const double> xs) {
  double m = xs.empty() ? 0.0 : xs[0];
  for (double x : xs) m = std::min(m, x);
  return m;
}

double percentile_of(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace toss
