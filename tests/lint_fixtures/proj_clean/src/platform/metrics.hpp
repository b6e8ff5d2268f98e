// Fixture: stand-in for the metrics ledger header (marks the files that
// include it as ledger-feeding for det-unordered-iter).
#pragma once

namespace fx {
struct MetricsSnapshot {
  int tiers = 0;
};
}  // namespace fx
