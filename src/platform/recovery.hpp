// Per-lane circuit breaker for the self-healing snapshot path.
//
// The recovery ladder in core/toss.cpp handles individual failures; the
// breaker handles *persistent* ones. When consecutive invocations keep
// engaging recovery (retries, fallbacks, a quarantine), the breaker opens
// and the lane stops hammering the failing tiered path: TossFunction is
// told to serve from the retained single-tier snapshot and to hold off
// Step III re-analysis. After a cooldown the breaker half-opens, lets one
// probe invocation through, and closes again only if the probe is clean.
//
// All state advances per *invocation*, never per wall-clock second — the
// engine's determinism guarantee (same results for any thread count) rules
// out real time, and the toss_lint nondeterminism rule enforces that.
#pragma once

#include "util/fault.hpp"
#include "util/units.hpp"

namespace toss {

struct CircuitBreakerOptions {
  /// Consecutive recovery-engaged invocations before the breaker opens.
  u32 failure_threshold = 3;
  /// Suspended invocations served before the half-open probe.
  u32 cooldown_invocations = 8;
};

class CircuitBreaker {
 public:
  enum class State : u8 { kClosed = 0, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  /// Consulted before an invocation: true while the breaker is open (the
  /// half-open probe runs unsuspended).
  bool should_suspend() const { return state_ == State::kOpen; }

  /// Fed after every invocation. `degraded` = the invocation engaged the
  /// recovery ladder (retries, fallback, or a quarantine).
  void observe(bool degraded);

  /// Force the breaker open regardless of the failure streak — the engine
  /// watchdog trips a lane whose chunk blew its simulated-time budget.
  /// No-op while already open (the trip is counted only on a transition).
  void trip();

  State state() const { return state_; }
  /// Times the breaker transitioned closed/half-open -> open.
  u64 opened_count() const { return opened_count_; }

 private:
  void open();

  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  u32 consecutive_failures_ = 0;
  u32 cooldown_left_ = 0;
  u64 opened_count_ = 0;
};

}  // namespace toss
