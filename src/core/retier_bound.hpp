// The constraint the fleet arbiter re-enters Step IV placement under
// (DESIGN.md §9). Shared between the TOSS orchestrator (which applies it)
// and the platform arbiter (which chooses it), so it lives in its own
// header.
#pragma once

#include <cstddef>
#include <optional>

namespace toss {

/// `min_descent_prefix` forces the rebuilt placement at least that many
/// descents down the Step-III sweep: the arbiter demotes a lane by
/// re-tiering at the next TieringDecision::demotion_curve point (one local
/// Eq-1 cost minimum at a time) and promotes it by replaying the prefix it
/// held one step up. Default-constructed = unconstrained.
struct RetierBound {
  std::optional<size_t> min_descent_prefix;

  bool trivial() const { return !min_descent_prefix; }
  bool operator==(const RetierBound&) const = default;
};

}  // namespace toss
