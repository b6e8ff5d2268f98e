// Fixture: the deterministic reduction shape (per-task slots, reduced in
// index order after the join) plus one waived in-place accumulation.
#include <cstddef>
#include <vector>

namespace fx {

struct LaneExecutor {
  template <typename F>
  void run_epoch(std::size_t n, F f);
};

double reduce(LaneExecutor& exec, const double* xs, std::size_t n) {
  std::vector<double> partial(n, 0.0);
  exec.run_epoch(n, [&](std::size_t i) { partial[i] = xs[i] * 2.0; });
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += partial[i];
  return total;
}

double reduce_serial(LaneExecutor& exec, const double* xs, std::size_t n) {
  double total = 0.0;
  exec.run_epoch(1, [&](std::size_t) {
    for (std::size_t i = 0; i < n; ++i)
      total += xs[i];  // toss-lint: allow(det-fp-accum)
  });
  return total;
}

}  // namespace fx
