// Fixture: stand-in for the lane executor header. Files whose
// include closure reaches this path are "ledger-feeding" for
// det-unordered-iter even when they never touch metrics.hpp.
#pragma once

namespace fx {
struct LaneExecutor {
  int workers = 0;
};
}  // namespace fx
