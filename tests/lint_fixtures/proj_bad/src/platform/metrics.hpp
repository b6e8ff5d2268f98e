// Fixture: stand-in for the metrics ledger header. Files whose include
// closure reaches this path are "ledger-feeding" for det-unordered-iter.
#pragma once

namespace fx {
struct MetricsSnapshot {
  int tiers = 0;
};
}  // namespace fx
