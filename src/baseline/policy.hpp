// Restore-policy interface: how a snapshotting system turns its stored
// artifacts into a RestorePlan for the microVM. Implementations: vanilla
// Firecracker lazy restore, REAP working-set prefetch, FaaSnap per-region
// loading, and TOSS tiered restore (in src/core/tierer.hpp).
#pragma once

#include "vmm/microvm.hpp"

namespace toss {

class RestorePolicy {
 public:
  virtual ~RestorePolicy() = default;

  /// Build the restore plan for the next invocation.
  virtual RestorePlan plan_restore() const = 0;
};

}  // namespace toss
