// Fixture: racy floating-point accumulation inside a parallel region —
// a shared += and a fetch_add on an atomic<double> inside one run_epoch
// call's argument list, and a shared += inside one reached through `->`.
#include <atomic>
#include <cstddef>

namespace fx {

struct LaneExecutor {
  template <typename F>
  void run_epoch(std::size_t n, F f);
};

double reduce(LaneExecutor& exec, const double* xs, std::size_t n) {
  double total = 0.0;
  std::atomic<double> atomic_total{0.0};
  exec.run_epoch(n, [&](std::size_t i) {
    total += xs[i];
    atomic_total.fetch_add(xs[i]);
  });
  return total;
}

double reduce_epoch(LaneExecutor* exec, const double* xs, std::size_t n) {
  double sum = 0.0;
  exec->run_epoch(n, [&](std::size_t i) { sum += xs[i]; });
  return sum;
}

}  // namespace fx
